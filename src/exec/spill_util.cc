#include "exec/spill_util.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace agora {

Status SpillMerge::AddFile(SpillFile* file, ExecStats* stats) {
  AGORA_RETURN_IF_ERROR(file->Rewind());
  Stream s;
  s.file = file;
  streams_.push_back(std::move(s));
  return Advance(&streams_.back(), stats);
}

Status SpillMerge::AddChunks(std::vector<Chunk> chunks, ExecStats* stats) {
  Stream s;
  s.mem = std::move(chunks);
  streams_.push_back(std::move(s));
  return Advance(&streams_.back(), stats);
}

Status SpillMerge::Advance(Stream* s, ExecStats* stats) {
  while (!s->exhausted && s->row >= s->chunk.num_rows()) {
    s->row = 0;
    s->chunk = Chunk();
    if (s->file != nullptr) {
      bool eof = false;
      AGORA_RETURN_IF_ERROR(SpillReadChunk(s->file, &s->chunk, &eof, stats));
      s->exhausted = eof;
    } else if (s->mem_pos < s->mem.size()) {
      s->chunk = std::move(s->mem[s->mem_pos++]);
    } else {
      s->exhausted = true;
    }
  }
  return Status::OK();
}

int64_t SpillMerge::head() const {
  int64_t best = INT64_MAX;
  for (const Stream& s : streams_) {
    if (s.exhausted) continue;
    const ColumnVector& keys = s.chunk.column(s.chunk.num_columns() - 1);
    best = std::min(best, keys.GetInt64(s.row));
  }
  return best;
}

Status SpillMerge::Next(int64_t bound, Chunk* out, ExecStats* stats) {
  const size_t ncols = out->num_columns();
  std::vector<uint32_t> sel;
  while (out->num_rows() < kChunkSize) {
    // Find the stream with the smallest head key (keys are disjoint
    // across streams, so ties cannot happen) and the runner-up bound.
    size_t best = SIZE_MAX;
    int64_t best_key = bound;
    int64_t second = bound;
    for (size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      if (s.exhausted) continue;
      int64_t key = s.chunk.column(ncols).GetInt64(s.row);
      if (key < best_key) {
        second = best_key;
        best = i;
        best_key = key;
      } else if (key < second) {
        second = key;
      }
    }
    if (best == SIZE_MAX) break;  // drained, or every head reached `bound`
    Stream& s = streams_[best];
    // Take the longest run from this stream that stays below every other
    // head and fits the output chunk, then gather it in one batch.
    const int64_t* keys = s.chunk.column(ncols).int64_data();
    size_t room = kChunkSize - out->num_rows();
    size_t end = s.row + 1;
    while (end < s.chunk.num_rows() && keys[end] < second &&
           end - s.row < room) {
      ++end;
    }
    sel.resize(end - s.row);
    std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(s.row));
    for (size_t c = 0; c < ncols; ++c) {
      out->column(c).AppendGatherPadded(s.chunk.column(c), sel.data(),
                                        sel.size());
    }
    s.row = end;
    AGORA_RETURN_IF_ERROR(Advance(&s, stats));
  }
  return Status::OK();
}

}  // namespace agora
