#ifndef AGORA_EXEC_SPILL_UTIL_H_
#define AGORA_EXEC_SPILL_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/physical_op.h"
#include "storage/spill.h"

namespace agora {

/// Counted wrappers around SpillFile IO: identical semantics, plus the
/// byte deltas land in the query's ExecStats so EXPLAIN ANALYZE and the
/// metrics registry see spill volume.

inline Status SpillWriteChunk(SpillFile* file, const Chunk& chunk,
                              ExecStats* stats) {
  int64_t before = file->bytes_written();
  AGORA_RETURN_IF_ERROR(file->WriteChunk(chunk));
  stats->spill_bytes_written += file->bytes_written() - before;
  return Status::OK();
}

inline Status SpillWriteBlob(SpillFile* file, const void* data, size_t size,
                             ExecStats* stats) {
  int64_t before = file->bytes_written();
  AGORA_RETURN_IF_ERROR(file->WriteBlob(data, size));
  stats->spill_bytes_written += file->bytes_written() - before;
  return Status::OK();
}

inline Status SpillReadChunk(SpillFile* file, Chunk* out, bool* eof,
                             ExecStats* stats) {
  int64_t before = file->bytes_read();
  AGORA_RETURN_IF_ERROR(file->ReadChunk(out, eof));
  stats->spill_bytes_read += file->bytes_read() - before;
  return Status::OK();
}

inline Status SpillReadBlob(SpillFile* file, std::string* out,
                            ExecStats* stats) {
  int64_t before = file->bytes_read();
  AGORA_RETURN_IF_ERROR(file->ReadBlob(out));
  stats->spill_bytes_read += file->bytes_read() - before;
  return Status::OK();
}

/// K-way merge of spooled streams back into one order. Each stream's
/// chunks carry a trailing int64 key column, ascending within the stream
/// and disjoint across streams; Next() emits rows in ascending key order,
/// without the key column. The spilled hash join merges its output back
/// into probe-row order with it, the spilled aggregate its finalized
/// groups into first-appearance order.
class SpillMerge {
 public:
  /// Adds a stream read from `file`, from its start.
  Status AddFile(SpillFile* file, ExecStats* stats);
  /// Adds a stream of chunks held in memory.
  Status AddChunks(std::vector<Chunk> chunks, ExecStats* stats);

  /// Key of the next row; INT64_MAX once every stream is drained.
  int64_t head() const;
  bool done() const { return head() == INT64_MAX; }

  /// Appends the next rows in key order to `out`, whose columns are the
  /// streams' columns minus the key, until `out` holds kChunkSize rows or
  /// the next key is `bound` or more.
  Status Next(int64_t bound, Chunk* out, ExecStats* stats);

  void Clear() { streams_.clear(); }

 private:
  struct Stream {
    std::vector<Chunk> mem;
    size_t mem_pos = 0;
    SpillFile* file = nullptr;
    Chunk chunk;
    size_t row = 0;
    bool exhausted = false;
  };

  /// Loads the stream's next non-empty chunk once `row` ran off the
  /// current one.
  static Status Advance(Stream* s, ExecStats* stats);

  std::vector<Stream> streams_;
};

}  // namespace agora

#endif  // AGORA_EXEC_SPILL_UTIL_H_
