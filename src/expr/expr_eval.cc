#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/string_util.h"
#include "expr/expr.h"

// Vectorized expression kernels. The design (DESIGN.md "Vectorized
// expressions"):
//
//  * Operands are *bound*, not copied, by every kind: a column ref
//    borrows the chunk column and the context's selection vector, a
//    literal becomes a one-physical-row constant vector, anything else
//    is materialized dense by recursing into EvalBatch.
//  * A bound operand has one shape per batch: flat, selected (read
//    through the selection) or constant. Readers are instantiated per
//    (shape, physical type), and each kernel dispatches once per batch
//    on (shape, type, operator), so no row loop tests the shape. -O2
//    does not unswitch loops, so this is done by hand.
//  * NULLs are handled by writing validity and payload unconditionally:
//    null rows get payload 0 / "" exactly like AppendNull would, so
//    results are byte-identical to the row-at-a-time evaluator.
//  * A predicate kind (comparison, IN, LIKE, IS [NOT] NULL) writes its
//    per-row loop once, against a sink: BoolSink fills the BOOLEAN column
//    EvalBatch returns, SelectSink writes the survivors' row ids straight
//    into the Selection that RefineSelection narrows — no mask column.

namespace agora {

namespace {

void CountBatch(const EvalContext& ctx, size_t n) {
  if (ctx.counters == nullptr) return;
  ctx.counters->rows_evaluated += static_cast<int64_t>(n);
  if (ctx.sel != nullptr && n < ctx.chunk->num_rows()) {
    ctx.counters->sel_hits++;
  }
}

/// How a bound operand maps output row i to one of its own rows.
enum class Shape {
  kFlat,      // row i
  kSelected,  // row sel[i]
  kConstant,  // the single physical row, hoisted out of the loop
};

/// One bound operand of a batch kernel: a borrowed (or materialized)
/// vector plus the row indirection needed to read it.
struct Operand {
  ColumnVector storage;  // owns the result when materialized
  const ColumnVector* vec = nullptr;
  const uint32_t* sel = nullptr;  // chunk-row indirection, or nullptr
  bool constant = false;

  Shape shape() const {
    if (constant) return Shape::kConstant;
    return sel != nullptr ? Shape::kSelected : Shape::kFlat;
  }
  bool const_null() const { return constant && vec->IsNull(0); }
  /// Row of `vec` holding output row i (boxed per-row paths only).
  size_t Row(size_t i) const { return sel != nullptr ? sel[i] : i; }
};

Status BindOperand(const Expr& expr, const EvalContext& ctx, Operand* op) {
  if (expr.kind() == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    if (ref.index() >= ctx.chunk->num_columns()) {
      return Status::Internal("column ref #" + std::to_string(ref.index()) +
                              " out of range (chunk has " +
                              std::to_string(ctx.chunk->num_columns()) +
                              " columns)");
    }
    op->vec = &ctx.chunk->column(ref.index());
    op->sel = ctx.sel != nullptr ? ctx.sel->data() : nullptr;
  } else {
    AGORA_RETURN_IF_ERROR(expr.EvalBatch(ctx, &op->storage));
    op->vec = &op->storage;
    op->sel = nullptr;
  }
  if (op->vec->is_constant()) {
    op->constant = true;
    op->sel = nullptr;
  }
  return Status::OK();
}

bool IsIntClass(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDate || t == TypeId::kBool;
}

// Payload type P of a reader: int64_t (BOOLEAN/BIGINT/DATE), double or
// std::string.

template <typename P>
const P* FlatPayload(const ColumnVector& v) {
  if constexpr (std::is_same_v<P, double>) {
    return v.double_data();
  } else if constexpr (std::is_same_v<P, std::string>) {
    return v.string_data();
  } else {
    return v.int64_data();
  }
}

template <typename P>
P ConstPayload(const ColumnVector& v) {
  if constexpr (std::is_same_v<P, double>) {
    return v.GetDouble(0);
  } else if constexpr (std::is_same_v<P, std::string>) {
    return v.GetString(0);
  } else {
    return v.GetInt64(0);
  }
}

/// Reads one operand's rows as compute type T from payload type P
/// (int64_t read as double is the numeric promotion), in shape S. A
/// constant's row is copied into the reader, so the loop reads a local.
template <typename T, typename P, Shape S>
class Reader {
 public:
  explicit Reader(const Operand& op) {
    if constexpr (S == Shape::kConstant) {
      const_null_ = op.vec->IsNull(0);
      if (!const_null_) const_val_ = static_cast<T>(ConstPayload<P>(*op.vec));
    } else {
      validity_ = op.vec->validity_data();
      data_ = FlatPayload<P>(*op.vec);
      sel_ = op.sel;
    }
  }

  bool Null(size_t i) const {
    if constexpr (S == Shape::kConstant) {
      return const_null_;
    } else {
      return validity_[Idx(i)] == 0;
    }
  }

  decltype(auto) Get(size_t i) const {
    if constexpr (S == Shape::kConstant) {
      return (const_val_);
    } else if constexpr (std::is_same_v<T, P>) {
      return (data_[Idx(i)]);
    } else {
      return static_cast<T>(data_[Idx(i)]);
    }
  }

 private:
  size_t Idx(size_t i) const {
    if constexpr (S == Shape::kSelected) {
      return sel_[i];
    } else {
      return i;
    }
  }

  const uint8_t* validity_ = nullptr;
  const P* data_ = nullptr;
  const uint32_t* sel_ = nullptr;
  bool const_null_ = false;
  T const_val_{};  // NULL constants read 0 / "", like NULL flat rows
};

/// Reads a dictionary operand's rows as their strings, `values[code]`,
/// in shape S (a dictionary vector is flat or selected, never constant).
/// NULL rows hold a valid code (0 when appended as NULL), so Get is safe
/// on them; an all-NULL vector's empty dictionary reads one "".
template <Shape S>
class DictReader {
 public:
  explicit DictReader(const Operand& op)
      : validity_(op.vec->validity_data()),
        codes_(op.vec->int64_data()),
        values_(op.vec->dictionary()->size() != 0
                    ? op.vec->dictionary()->values()
                    : &kEmpty),
        sel_(op.sel) {}

  bool Null(size_t i) const { return validity_[Idx(i)] == 0; }
  const std::string& Get(size_t i) const { return values_[codes_[Idx(i)]]; }

 private:
  static inline const std::string kEmpty;

  size_t Idx(size_t i) const {
    if constexpr (S == Shape::kSelected) {
      return sel_[i];
    } else {
      return i;
    }
  }

  const uint8_t* validity_;
  const int64_t* codes_;
  const std::string* values_;
  const uint32_t* sel_;
};

/// Calls fn(reader) with `op` read as T from payload P, in op's shape.
template <typename T, typename P, typename Fn>
void VisitShape(const Operand& op, Fn&& fn) {
  switch (op.shape()) {
    case Shape::kFlat:
      fn(Reader<T, P, Shape::kFlat>(op));
      return;
    case Shape::kSelected:
      fn(Reader<T, P, Shape::kSelected>(op));
      return;
    case Shape::kConstant:
      fn(Reader<T, P, Shape::kConstant>(op));
      return;
  }
}

/// Calls fn(reader) with `op` read as T. Strings read strings; doubles
/// read a DOUBLE payload as is and promote integer payloads; int64_t
/// reads BOOLEAN/BIGINT/DATE payloads.
template <typename T, typename Fn>
void Visit(const Operand& op, Fn&& fn) {
  if constexpr (std::is_same_v<T, double>) {
    if (op.vec->type() == TypeId::kDouble) {
      VisitShape<double, double>(op, fn);
    } else {
      VisitShape<double, int64_t>(op, fn);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!op.vec->is_dictionary()) {
      VisitShape<std::string, std::string>(op, fn);
    } else if (op.sel != nullptr) {
      fn(DictReader<Shape::kSelected>(op));
    } else {
      fn(DictReader<Shape::kFlat>(op));
    }
  } else {
    VisitShape<int64_t, int64_t>(op, fn);
  }
}

/// Calls fn(reader) with `op` read as its own physical type.
template <typename Fn>
void VisitNative(const Operand& op, Fn&& fn) {
  switch (op.vec->type()) {
    case TypeId::kString:
      Visit<std::string>(op, fn);
      return;
    case TypeId::kDouble:
      Visit<double>(op, fn);
      return;
    default:
      Visit<int64_t>(op, fn);
      return;
  }
}

/// Calls fn(left_reader, right_reader) with both operands read as T.
template <typename T, typename Fn>
void VisitPair(const Operand& l, const Operand& r, Fn&& fn) {
  Visit<T>(l, [&](const auto& lr) {
    Visit<T>(r, [&](const auto& rr) { fn(lr, rr); });
  });
}

/// Runs a BOOLEAN kernel `run(k, validity, payload)`: once, into a
/// constant, when its operands are all constant; else over all n rows.
template <typename Run>
void EmitBool(bool constant, size_t n, ColumnVector* out, Run&& run) {
  if (constant) {
    uint8_t ov = 0;
    int64_t ob = 0;
    run(size_t{1}, &ov, &ob);
    Value v = ov != 0 ? Value::Bool(ob != 0) : Value::Null(TypeId::kBool);
    *out = ColumnVector::MakeConstant(TypeId::kBool, v, n);
    return;
  }
  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  run(n, out->mutable_validity_data(), out->mutable_int64_data());
}

/// Takes a predicate's verdict for row i (`valid`: not NULL; `res`: the
/// value when valid) into a BOOLEAN column.
struct BoolSink {
  uint8_t* ov;
  int64_t* ob;
  void operator()(size_t i, bool valid, bool res) {
    ov[i] = valid ? 1 : 0;
    ob[i] = (valid & res) ? 1 : 0;
  }
};

/// Takes a predicate's verdict for row i into a selection, branch-free:
/// every row's id is written and only a TRUE row advances `k`. kDense:
/// row i is chunk row i (no selection yet). Otherwise row i is chunk row
/// rows[i], and survivors compact in place (k <= i, so no unread id is
/// overwritten).
template <bool kDense>
struct SelectSink {
  uint32_t* rows;
  size_t k = 0;
  void operator()(size_t i, bool valid, bool res) {
    rows[k] = kDense ? static_cast<uint32_t>(i) : rows[i];
    k += (valid & res) ? 1 : 0;
  }
};

bool StrEq(const std::string& a, const std::string& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// Comparison functors reproduce the legacy three-way semantics exactly:
// cmp = a < b ? -1 : (a > b ? 1 : 0), so a NaN operand compares "equal"
// to everything. Numeric ops are therefore spelled via operator< only;
// string equality is a size check plus memcmp. `>` and `>=` run as `<`
// and `<=` with the readers swapped.
struct CmpEq {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return !(a < b) && !(b < a);
  }
  bool operator()(const std::string& a, const std::string& b) const {
    return StrEq(a, b);
  }
};
struct CmpNe {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return (a < b) || (b < a);
  }
  bool operator()(const std::string& a, const std::string& b) const {
    return !StrEq(a, b);
  }
};
struct CmpLt {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a < b;
  }
};
struct CmpLe {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return !(b < a);
  }
};

/// Payload reads are safe on null rows (they hold 0 / ""), so validity
/// and result are computed without per-row branches.
template <typename Cmp, typename L, typename R, typename Sink>
void CompareLoop(const L& l, const R& r, size_t n, Sink& sink) {
  Cmp cmp;
  for (size_t i = 0; i < n; ++i) {
    bool valid = !l.Null(i) & !r.Null(i);
    sink(i, valid, cmp(l.Get(i), r.Get(i)));
  }
}

template <typename L, typename R, typename Sink>
void DispatchCompare(CompareOp op, const L& l, const R& r, size_t n,
                     Sink& sink) {
  switch (op) {
    case CompareOp::kEq:
      CompareLoop<CmpEq>(l, r, n, sink);
      break;
    case CompareOp::kNe:
      CompareLoop<CmpNe>(l, r, n, sink);
      break;
    case CompareOp::kLt:
      CompareLoop<CmpLt>(l, r, n, sink);
      break;
    case CompareOp::kLe:
      CompareLoop<CmpLe>(l, r, n, sink);
      break;
    case CompareOp::kGt:
      CompareLoop<CmpLt>(r, l, n, sink);
      break;
    case CompareOp::kGe:
      CompareLoop<CmpLe>(r, l, n, sink);
      break;
  }
}

/// Arithmetic loop: `fn(a, b, &res)` computes one value and returns
/// false to signal NULL (division by zero).
template <typename L, typename R, typename T, typename Fn>
void ArithLoop(const L& l, const R& r, size_t n, uint8_t* ov, T* od, Fn fn) {
  for (size_t i = 0; i < n; ++i) {
    T res = 0;
    bool valid = !l.Null(i) & !r.Null(i);
    valid = valid && fn(l.Get(i), r.Get(i), &res);
    ov[i] = valid ? 1 : 0;
    od[i] = valid ? res : T(0);
  }
}

template <typename L, typename R, typename T>
void DispatchArith(ArithOp op, const L& l, const R& r, size_t n, uint8_t* ov,
                   T* od) {
  switch (op) {
    case ArithOp::kAdd:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        *res = a + b;
        return true;
      });
      break;
    case ArithOp::kSub:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        *res = a - b;
        return true;
      });
      break;
    case ArithOp::kMul:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        *res = a * b;
        return true;
      });
      break;
    case ArithOp::kDiv:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        if (b == 0) return false;
        *res = a / b;
        return true;
      });
      break;
    case ArithOp::kMod:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        if (b == 0) return false;
        if constexpr (std::is_same_v<T, double>) {
          *res = std::fmod(a, b);
        } else {
          *res = a % b;
        }
        return true;
      });
      break;
  }
}

/// A dictionary's values as a NULL-free operand: row c is code c.
struct ValuesReader {
  const std::string* values;
  bool Null(size_t) const { return false; }
  const std::string& Get(size_t c) const { return values[c]; }
};

/// Records a predicate's verdict per dictionary code: bit 0 valid, bit 1
/// result.
struct CodeSink {
  uint8_t* verdict;
  void operator()(size_t c, bool valid, bool res) {
    verdict[c] = static_cast<uint8_t>((valid ? 1 : 0) | (res ? 2 : 0));
  }
};

/// True when a predicate over operand `c` and constants should run once
/// over `c`'s dictionary instead of once per row: `c` is a dictionary
/// vector no larger than the k live rows.
bool UseCodeTable(const Operand& c, size_t k) {
  return c.vec->is_dictionary() && c.vec->dictionary()->size() <= k;
}

/// Runs a predicate's loop `loop(values, m, code_sink)` over the m values
/// of `c`'s dictionary, giving a truth table per code, then feeds `sink`
/// each of the k rows' verdict as `table[code]` (NULL rows stay NULL).
template <typename Sink, typename Loop>
void ThroughCodes(const Operand& c, size_t k, Sink& sink, Loop&& loop) {
  const StringDict& dict = *c.vec->dictionary();
  // At least one entry: an all-NULL vector's rows hold code 0.
  std::vector<uint8_t> table(std::max<size_t>(dict.size(), 1), 0);
  CodeSink code_sink{table.data()};
  loop(ValuesReader{dict.values()}, dict.size(), code_sink);
  VisitShape<int64_t, int64_t>(c, [&](const auto& cr) {
    for (size_t i = 0; i < k; ++i) {
      uint8_t v = table[cr.Get(i)];
      sink(i, !cr.Null(i) & ((v & 1) != 0), (v & 2) != 0);
    }
  });
}

/// The IN list split once per batch by payload class. Membership keeps
/// Value::Compare's semantics: strings equal by bytes, numbers by the
/// `<`-only three-way test after int->double promotion (so NaN matches
/// every number and -0.0 matches 0), and a string never equals a number.
class InCandidates {
 public:
  InCandidates(const std::vector<Value>& values, bool double_probe) {
    for (const Value& v : values) {
      if (v.is_null()) {
        has_null_ = true;
      } else if (v.type() == TypeId::kString) {
        strings_.push_back(&v.string_value());
      } else if (v.type() == TypeId::kDouble) {
        doubles_.push_back(v.double_value());
      } else if (double_probe) {
        doubles_.push_back(v.AsDouble());
      } else {
        ints_.push_back(v.int64_value());
      }
    }
  }

  bool has_null() const { return has_null_; }

  bool Contains(const std::string& v) const {
    for (const std::string* c : strings_) {
      if (StrEq(v, *c)) return true;
    }
    return false;
  }
  bool Contains(double v) const {
    for (double c : doubles_) {
      if (!(v < c) && !(c < v)) return true;
    }
    return false;
  }
  bool Contains(int64_t v) const {
    for (int64_t c : ints_) {
      if (v == c) return true;
    }
    return !doubles_.empty() && Contains(static_cast<double>(v));
  }

 private:
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<const std::string*> strings_;
  bool has_null_ = false;
};

/// x [NOT] IN (...): TRUE/FALSE when found or when the list has no NULL,
/// else NULL (x IN (..., NULL) is NULL when x is not found).
template <typename R, typename Sink>
void InLoop(const R& r, const InCandidates& cands, bool negated, size_t n,
            Sink& sink) {
  bool has_null = cands.has_null();
  for (size_t i = 0; i < n; ++i) {
    bool found = !r.Null(i) && cands.Contains(r.Get(i));
    bool valid = !r.Null(i) && (found || !has_null);
    sink(i, valid, found != negated);
  }
}

/// Runs a predicate kernel's row loop `run(k, sink)` into the BOOLEAN
/// column EvalBatch returns.
struct ToColumn {
  size_t n;
  ColumnVector* out;

  template <typename Run>
  void operator()(bool constant, Run&& run) const {
    EmitBool(constant, n, out, [&](size_t k, uint8_t* ov, int64_t* ob) {
      BoolSink sink{ov, ob};
      run(k, sink);
    });
  }
};

/// Runs a predicate kernel's row loop `run(k, sink)` into the selection
/// RefineSelection narrows: `sel` names the n live rows the kernel's
/// operands were bound to, and keeps only the TRUE ones.
struct ToSelection {
  size_t n;
  Selection* sel;

  template <typename Run>
  void operator()(bool constant, Run&& run) const {
    if (constant) {
      // One verdict for every live row.
      uint8_t ov = 0;
      int64_t ob = 0;
      BoolSink sink{&ov, &ob};
      run(size_t{1}, sink);
      if (n == 0 || ob != 0) return;
      sel->all = false;
      sel->rows.clear();
      return;
    }
    if (!sel->all) {
      SelectSink<false> sink{sel->rows.data()};
      run(n, sink);
      sel->rows.resize(sink.k);
      return;
    }
    sel->rows.resize(n);
    SelectSink<true> sink{sel->rows.data()};
    run(n, sink);
    if (sink.k == n) {
      sel->rows.clear();  // everything passed; stay in "all" form
      return;
    }
    sel->all = false;
    sel->rows.resize(sink.k);
  }
};

// Predicate kernels: each binds its operands, checks their types and
// hands `emit` (ToColumn or ToSelection) its only per-row loop.

template <typename Emit>
Status CompareKernel(const ComparisonExpr& e, const EvalContext& ctx,
                     const Emit& emit) {
  Operand l, r;
  AGORA_RETURN_IF_ERROR(BindOperand(*e.left(), ctx, &l));
  AGORA_RETURN_IF_ERROR(BindOperand(*e.right(), ctx, &r));
  CountBatch(ctx, ctx.NumRows());

  bool l_str = l.vec->type() == TypeId::kString;
  bool r_str = r.vec->type() == TypeId::kString;
  if (l_str != r_str) {
    return Status::TypeError(
        "cannot compare " + std::string(TypeIdToString(l.vec->type())) +
        " with " + std::string(TypeIdToString(r.vec->type())));
  }
  bool any_double = l.vec->type() == TypeId::kDouble ||
                    r.vec->type() == TypeId::kDouble;
  emit(l.constant && r.constant, [&](size_t k, auto& sink) {
    auto loop = [&](const auto& lr, const auto& rr) {
      DispatchCompare(e.op(), lr, rr, k, sink);
    };
    if (l_str && r.constant && UseCodeTable(l, k)) {
      ThroughCodes(l, k, sink, [&](const auto& vr, size_t m, auto& cs) {
        Visit<std::string>(r, [&](const auto& rr) {
          DispatchCompare(e.op(), vr, rr, m, cs);
        });
      });
    } else if (l_str && l.constant && UseCodeTable(r, k)) {
      ThroughCodes(r, k, sink, [&](const auto& vr, size_t m, auto& cs) {
        Visit<std::string>(l, [&](const auto& lr) {
          DispatchCompare(e.op(), lr, vr, m, cs);
        });
      });
    } else if (l_str) {
      VisitPair<std::string>(l, r, loop);
    } else if (any_double) {
      VisitPair<double>(l, r, loop);
    } else {
      VisitPair<int64_t>(l, r, loop);
    }
  });
  return Status::OK();
}

template <typename Emit>
Status IsNullKernel(const IsNullExpr& e, const EvalContext& ctx,
                    const Emit& emit) {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*e.child(), ctx, &c));
  CountBatch(ctx, ctx.NumRows());
  bool negated = e.negated();
  emit(c.constant, [&](size_t k, auto& sink) {
    VisitNative(c, [&](const auto& cr) {
      for (size_t i = 0; i < k; ++i) sink(i, true, cr.Null(i) != negated);
    });
  });
  return Status::OK();
}

template <typename Emit>
Status LikeKernel(const LikeExpr& e, const EvalContext& ctx,
                  const Emit& emit) {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*e.child(), ctx, &c));
  if (c.vec->type() != TypeId::kString) {
    return Status::TypeError("LIKE operand is not VARCHAR");
  }
  CountBatch(ctx, ctx.NumRows());
  bool negated = e.negated();
  auto loop = [&](const auto& cr, size_t k, auto& sink) {
    for (size_t i = 0; i < k; ++i) {
      bool valid = !cr.Null(i);
      sink(i, valid, valid && LikeMatch(cr.Get(i), e.pattern()) != negated);
    }
  };
  emit(c.constant, [&](size_t k, auto& sink) {
    if (UseCodeTable(c, k)) {
      ThroughCodes(c, k, sink, loop);
      return;
    }
    Visit<std::string>(c, [&](const auto& cr) { loop(cr, k, sink); });
  });
  return Status::OK();
}

template <typename Emit>
Status InKernel(const InListExpr& e, const EvalContext& ctx,
                const Emit& emit) {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*e.child(), ctx, &c));
  CountBatch(ctx, ctx.NumRows());
  InCandidates cands(e.values(), c.vec->type() == TypeId::kDouble);
  emit(c.constant, [&](size_t k, auto& sink) {
    if (UseCodeTable(c, k)) {
      ThroughCodes(c, k, sink, [&](const auto& vr, size_t m, auto& cs) {
        InLoop(vr, cands, e.negated(), m, cs);
      });
      return;
    }
    VisitNative(c, [&](const auto& cr) {
      InLoop(cr, cands, e.negated(), k, sink);
    });
  });
  return Status::OK();
}

/// Copies CASE branch `r` (read as T) into the output rows whose pick
/// is `b`; a null `r` is an all-NULL branch. NULL rows get payload 0, or
/// keep the "" a string row starts with after ResizeForOverwrite.
template <typename T>
void CopyBranch(const Operand* r, const uint32_t* pick, uint32_t b, size_t n,
                ColumnVector* out) {
  constexpr bool kString = std::is_same_v<T, std::string>;
  uint8_t* ov = out->mutable_validity_data();
  T* od = nullptr;
  if constexpr (std::is_same_v<T, double>) {
    od = out->mutable_double_data();
  } else if constexpr (!kString) {
    od = out->mutable_int64_data();
  }
  if (r == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (pick[i] != b) continue;
      ov[i] = 0;
      if constexpr (!kString) od[i] = T(0);
    }
    return;
  }
  Visit<T>(*r, [&](const auto& rr) {
    for (size_t i = 0; i < n; ++i) {
      if (pick[i] != b) continue;
      bool valid = !rr.Null(i);
      ov[i] = valid ? 1 : 0;
      if constexpr (kString) {
        if (valid) out->SetString(i, rr.Get(i));
      } else {
        od[i] = valid ? rr.Get(i) : T(0);
      }
    }
  });
}

}  // namespace

Status Expr::Evaluate(const Chunk& chunk, ColumnVector* out) const {
  EvalContext ctx;
  ctx.chunk = &chunk;
  AGORA_RETURN_IF_ERROR(EvalBatch(ctx, out));
  out->Flatten();
  return Status::OK();
}

Status ColumnRefExpr::EvalBatch(const EvalContext& ctx,
                                ColumnVector* out) const {
  if (index_ >= ctx.chunk->num_columns()) {
    return Status::Internal("column ref #" + std::to_string(index_) +
                            " out of range (chunk has " +
                            std::to_string(ctx.chunk->num_columns()) +
                            " columns)");
  }
  const ColumnVector& col = ctx.chunk->column(index_);
  if (ctx.sel == nullptr) {
    *out = col;  // shared buffer, O(1)
    return Status::OK();
  }
  *out = col.Gather(*ctx.sel);
  return Status::OK();
}

Status LiteralExpr::EvalBatch(const EvalContext& ctx,
                              ColumnVector* out) const {
  TypeId type =
      value_.type() == TypeId::kInvalid ? TypeId::kBool : value_.type();
  *out = ColumnVector::MakeConstant(type, value_, ctx.NumRows());
  return Status::OK();
}

Status ComparisonExpr::EvalBatch(const EvalContext& ctx,
                                 ColumnVector* out) const {
  return CompareKernel(*this, ctx, ToColumn{ctx.NumRows(), out});
}

Status ArithmeticExpr::EvalBatch(const EvalContext& ctx,
                                 ColumnVector* out) const {
  Operand l, r;
  AGORA_RETURN_IF_ERROR(BindOperand(*left_, ctx, &l));
  AGORA_RETURN_IF_ERROR(BindOperand(*right_, ctx, &r));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);

  if (!IsNumeric(l.vec->type()) || !IsNumeric(r.vec->type())) {
    return Status::TypeError(
        "arithmetic requires numeric operands, got " +
        std::string(TypeIdToString(l.vec->type())) + " and " +
        std::string(TypeIdToString(r.vec->type())));
  }

  auto run = [&](size_t k, ColumnVector* res) {
    *res = ColumnVector(result_type_);
    res->ResizeForOverwrite(k);
    uint8_t* ov = res->mutable_validity_data();
    if (result_type_ == TypeId::kDouble) {
      double* od = res->mutable_double_data();
      VisitPair<double>(l, r, [&](const auto& lr, const auto& rr) {
        DispatchArith(op_, lr, rr, k, ov, od);
      });
    } else {
      int64_t* od = res->mutable_int64_data();
      VisitPair<int64_t>(l, r, [&](const auto& lr, const auto& rr) {
        DispatchArith(op_, lr, rr, k, ov, od);
      });
    }
  };

  if (l.constant && r.constant) {
    ColumnVector one;
    run(1, &one);
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, one.GetValue(0), n);
    return Status::OK();
  }

  run(n, out);
  return Status::OK();
}

Status LogicalExpr::EvalBatch(const EvalContext& ctx,
                              ColumnVector* out) const {
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  // Kleene state per row: 0 = false, 1 = true, 2 = null.
  std::vector<uint8_t> state(
      n, op_ == LogicalOp::kAnd ? uint8_t{1} : uint8_t{0});
  bool is_and = op_ == LogicalOp::kAnd;
  auto merge = [is_and](uint8_t* slot, uint8_t v) {
    if (is_and) {
      // false dominates; null beats true.
      if (*slot == 0) return;
      if (v == 0) {
        *slot = 0;
      } else if (v == 2) {
        *slot = 2;
      }
    } else {
      // true dominates; null beats false.
      if (*slot == 1) return;
      if (v == 1) {
        *slot = 1;
      } else if (v == 2) {
        *slot = 2;
      }
    }
  };
  for (const ExprPtr& child : children_) {
    Operand c;
    AGORA_RETURN_IF_ERROR(BindOperand(*child, ctx, &c));
    if (c.vec->type() != TypeId::kBool) {
      return Status::TypeError("logical operand is not BOOLEAN: " +
                               child->ToString());
    }
    Visit<int64_t>(c, [&](const auto& cr) {
      for (size_t i = 0; i < n; ++i) {
        uint8_t v = cr.Null(i) ? 2 : (cr.Get(i) != 0 ? 1 : 0);
        merge(&state[i], v);
      }
    });
  }
  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  uint8_t* ov = out->mutable_validity_data();
  int64_t* ob = out->mutable_int64_data();
  for (size_t i = 0; i < n; ++i) {
    ov[i] = state[i] != 2 ? 1 : 0;
    ob[i] = state[i] == 1 ? 1 : 0;
  }
  return Status::OK();
}

Status NotExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*child_, ctx, &c));
  if (c.vec->type() != TypeId::kBool) {
    return Status::TypeError("NOT operand is not BOOLEAN");
  }
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  EmitBool(c.constant, n, out, [&](size_t k, uint8_t* ov, int64_t* ob) {
    Visit<int64_t>(c, [&](const auto& cr) {
      for (size_t i = 0; i < k; ++i) {
        bool valid = !cr.Null(i);
        ov[i] = valid ? 1 : 0;
        ob[i] = (valid & (cr.Get(i) == 0)) ? 1 : 0;
      }
    });
  });
  return Status::OK();
}

Status IsNullExpr::EvalBatch(const EvalContext& ctx,
                             ColumnVector* out) const {
  return IsNullKernel(*this, ctx, ToColumn{ctx.NumRows(), out});
}

Status LikeExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  return LikeKernel(*this, ctx, ToColumn{ctx.NumRows(), out});
}

Status InListExpr::EvalBatch(const EvalContext& ctx,
                             ColumnVector* out) const {
  return InKernel(*this, ctx, ToColumn{ctx.NumRows(), out});
}

Status CastExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*child_, ctx, &c));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  if (c.constant && n == 0) {
    *out = ColumnVector(result_type_);
    return Status::OK();
  }
  size_t rows = c.constant ? 1 : n;
  ColumnVector result(result_type_);
  result.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    size_t p = c.Row(i);
    if (c.vec->IsNull(p)) {
      result.AppendNull();
      continue;
    }
    // Casts go through the boxed Value conversion table; they are rare
    // on hot paths (the planner folds constant casts).
    // agora-lint: allow(expr-per-row-value) boxed cast conversion path
    auto v = c.vec->GetValue(p).CastTo(result_type_);
    if (!v.ok()) return v.status();
    // agora-lint: allow(expr-per-row-value) boxed cast conversion path
    result.AppendValue(*v);
  }
  if (c.constant) {
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, result.GetValue(0), n);
  } else {
    *out = std::move(result);
  }
  return Status::OK();
}

Status FunctionExpr::EvalBatch(const EvalContext& ctx,
                               ColumnVector* out) const {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*arg_, ctx, &c));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  if (c.constant && n == 0) {
    *out = ColumnVector(result_type_);
    return Status::OK();
  }
  size_t rows = c.constant ? 1 : n;
  const ColumnVector& v = *c.vec;
  ColumnVector result(result_type_);
  result.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    size_t p = c.Row(i);
    if (v.IsNull(p)) {
      result.AppendNull();
      continue;
    }
    switch (func_) {
      case ScalarFunc::kAbs:
        if (result_type_ == TypeId::kDouble) {
          result.AppendDouble(std::fabs(v.GetDouble(p)));
        } else {
          int64_t x = v.GetInt64(p);
          result.AppendInt64(x < 0 ? -x : x);
        }
        break;
      case ScalarFunc::kLower:
        result.AppendString(ToLower(v.GetString(p)));
        break;
      case ScalarFunc::kUpper:
        result.AppendString(ToUpper(v.GetString(p)));
        break;
      case ScalarFunc::kLength:
        result.AppendInt64(static_cast<int64_t>(v.GetString(p).size()));
        break;
      case ScalarFunc::kYear:
        result.AppendInt64(YearOfDate(v.GetInt64(p)));
        break;
      case ScalarFunc::kMonth:
        result.AppendInt64(MonthOfDate(v.GetInt64(p)));
        break;
      case ScalarFunc::kSqrt: {
        double x = v.GetNumeric(p);
        if (x < 0) {
          result.AppendNull();
        } else {
          result.AppendDouble(std::sqrt(x));
        }
        break;
      }
      case ScalarFunc::kFloor:
        result.AppendDouble(std::floor(v.GetNumeric(p)));
        break;
      case ScalarFunc::kCeil:
        result.AppendDouble(std::ceil(v.GetNumeric(p)));
        break;
    }
  }
  if (c.constant) {
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, result.GetValue(0), n);
  } else {
    *out = std::move(result);
  }
  return Status::OK();
}

Status CaseExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  bool is_string = result_type_ == TypeId::kString;
  bool is_double = result_type_ == TypeId::kDouble;
  if (!is_string && !is_double && !IsIntClass(result_type_)) {
    return Status::TypeError("CASE result type " +
                             std::string(TypeIdToString(result_type_)) +
                             " is not supported");
  }
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  size_t k = conditions_.size();
  // Branch b < k is WHEN b; branch k is ELSE. Sized up front: a bound
  // Operand may point into its own storage.
  std::vector<Operand> conds(k);
  std::vector<Operand> results(k + 1);
  for (size_t b = 0; b < k; ++b) {
    AGORA_RETURN_IF_ERROR(BindOperand(*conditions_[b], ctx, &conds[b]));
    if (conds[b].vec->type() != TypeId::kBool) {
      return Status::TypeError("CASE WHEN condition is not BOOLEAN");
    }
    AGORA_RETURN_IF_ERROR(BindOperand(*results_[b], ctx, &results[b]));
  }
  if (else_result_ != nullptr) {
    AGORA_RETURN_IF_ERROR(BindOperand(*else_result_, ctx, &results[k]));
  }

  // Each branch's operand, or nullptr for an all-NULL branch: a NULL
  // constant of any type (the binder leaves an untyped NULL literal as
  // is), or the implicit ELSE NULL. Integer branches widen to DOUBLE.
  std::vector<const Operand*> branch(k + 1, nullptr);
  for (size_t b = 0; b < k + (else_result_ != nullptr ? 1 : 0); ++b) {
    const Operand& r = results[b];
    if (r.const_null()) continue;
    TypeId t = r.vec->type();
    bool fits = is_string ? t == TypeId::kString
                          : IsIntClass(t) ||
                                (is_double && t == TypeId::kDouble);
    if (!fits) {
      return Status::TypeError("CASE branch of type " +
                               std::string(TypeIdToString(t)) +
                               " does not fit result type " +
                               std::string(TypeIdToString(result_type_)));
    }
    branch[b] = &r;
  }

  // pick[i] = first WHEN branch whose condition is TRUE, else k. Walking
  // the branches backwards lets each TRUE overwrite without a branch.
  std::vector<uint32_t> pick(n, static_cast<uint32_t>(k));
  for (size_t b = k; b-- > 0;) {
    auto bb = static_cast<uint32_t>(b);
    Visit<int64_t>(conds[b], [&](const auto& cr) {
      for (size_t i = 0; i < n; ++i) {
        bool hit = !cr.Null(i) & (cr.Get(i) != 0);
        pick[i] = hit ? bb : pick[i];
      }
    });
  }

  *out = ColumnVector(result_type_);
  out->ResizeForOverwrite(n);
  for (size_t b = 0; b <= k; ++b) {
    auto bb = static_cast<uint32_t>(b);
    if (is_string) {
      CopyBranch<std::string>(branch[b], pick.data(), bb, n, out);
    } else if (is_double) {
      CopyBranch<double>(branch[b], pick.data(), bb, n, out);
    } else {
      CopyBranch<int64_t>(branch[b], pick.data(), bb, n, out);
    }
  }
  return Status::OK();
}

namespace {

Status RefineImpl(const Expr& pred, const Chunk& chunk, Selection* sel,
                  ExprCounters* counters, bool nested) {
  size_t chunk_rows = chunk.num_rows();
  if (pred.kind() == ExprKind::kLogical) {
    const auto& logical = static_cast<const LogicalExpr&>(pred);
    if (logical.op() == LogicalOp::kAnd) {
      // Short-circuit by iterative refinement: each conjunct sees only
      // the rows its predecessors kept.
      for (const ExprPtr& child : logical.children()) {
        AGORA_RETURN_IF_ERROR(
            RefineImpl(*child, chunk, sel, counters, /*nested=*/true));
      }
      return Status::OK();
    }
    // OR: union of per-child acceptances; each child is evaluated only
    // over rows no earlier child accepted. Kleene NULL behaves as
    // reject, which matches filter semantics (keep only TRUE).
    std::vector<uint32_t> remaining;
    if (sel->all) {
      remaining.resize(chunk_rows);
      for (size_t i = 0; i < chunk_rows; ++i) {
        remaining[i] = static_cast<uint32_t>(i);
      }
    } else {
      remaining = sel->rows;
    }
    std::vector<uint32_t> accepted;
    for (const ExprPtr& child : logical.children()) {
      Selection child_sel;
      child_sel.all = false;
      child_sel.rows = remaining;
      AGORA_RETURN_IF_ERROR(
          RefineImpl(*child, chunk, &child_sel, counters, /*nested=*/true));
      if (child_sel.rows.empty()) continue;
      std::vector<uint32_t> merged;
      merged.reserve(accepted.size() + child_sel.rows.size());
      std::merge(accepted.begin(), accepted.end(), child_sel.rows.begin(),
                 child_sel.rows.end(), std::back_inserter(merged));
      accepted = std::move(merged);
      std::vector<uint32_t> rest;
      rest.reserve(remaining.size() - child_sel.rows.size());
      std::set_difference(remaining.begin(), remaining.end(),
                          child_sel.rows.begin(), child_sel.rows.end(),
                          std::back_inserter(rest));
      remaining = std::move(rest);
    }
    if (sel->all && accepted.size() == chunk_rows) return Status::OK();
    sel->all = false;
    sel->rows = std::move(accepted);
    return Status::OK();
  }

  EvalContext ctx;
  ctx.chunk = &chunk;
  ctx.sel = sel->all ? nullptr : &sel->rows;
  ctx.counters = counters;
  ToSelection select{ctx.NumRows(), sel};
  switch (pred.kind()) {
    case ExprKind::kComparison:
      return CompareKernel(static_cast<const ComparisonExpr&>(pred), ctx,
                           select);
    case ExprKind::kInList:
      return InKernel(static_cast<const InListExpr&>(pred), ctx, select);
    case ExprKind::kLike:
      return LikeKernel(static_cast<const LikeExpr&>(pred), ctx, select);
    case ExprKind::kIsNull:
      return IsNullKernel(static_cast<const IsNullExpr&>(pred), ctx, select);
    default:
      break;
  }

  // Any other predicate: bind it as a BOOLEAN operand (a mask evaluated
  // over the live rows, or a bare column read through the selection) and
  // select its TRUE rows.
  Operand mask;
  AGORA_RETURN_IF_ERROR(BindOperand(pred, ctx, &mask));
  if (mask.vec->type() != TypeId::kBool) {
    if (nested) {
      return Status::TypeError("logical operand is not BOOLEAN: " +
                               pred.ToString());
    }
    return Status::TypeError("filter predicate is not BOOLEAN");
  }
  select(mask.constant, [&](size_t k, auto& sink) {
    Visit<int64_t>(mask, [&](const auto& mr) {
      for (size_t i = 0; i < k; ++i) sink(i, !mr.Null(i), mr.Get(i) != 0);
    });
  });
  return Status::OK();
}

}  // namespace

Status RefineSelection(const Expr& pred, const Chunk& chunk, Selection* sel,
                       ExprCounters* counters) {
  return RefineImpl(pred, chunk, sel, counters, /*nested=*/false);
}

}  // namespace agora
