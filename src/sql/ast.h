#ifndef AGORA_SQL_AST_H_
#define AGORA_SQL_AST_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "types/type.h"
#include "types/value.h"

namespace agora {

struct ParsedExpr;
using ParsedExprPtr = std::shared_ptr<ParsedExpr>;

/// Kinds of unbound (syntactic) expressions produced by the parser.
enum class ParsedExprKind {
  kColumn,    // [table.]column
  kLiteral,   // 42, 'abc', DATE '1995-01-01', NULL, TRUE
  kStar,      // * (only valid in SELECT list and COUNT(*))
  kBinary,    // op in {=,<>,<,<=,>,>=,+,-,*,/,%,AND,OR}
  kUnary,     // op in {NOT, -}
  kCall,      // function or aggregate call: name(args) / name(DISTINCT x)
  kIsNull,    // child IS [NOT] NULL
  kLike,      // child [NOT] LIKE 'pattern'
  kInList,    // child [NOT] IN (literal, ...)
  kBetween,   // child [NOT] BETWEEN lo AND hi
  kCast,      // CAST(child AS TYPE)
  kCase,      // CASE WHEN ... THEN ... [ELSE ...] END
  kVectorLiteral,  // [v1, v2, ...] — dense embedding literal for KNN/distance
};

/// A syntactic expression node. Kept as a single tagged struct (rather than
/// a class hierarchy) because the binder immediately converts it to typed
/// `Expr` nodes.
struct ParsedExpr {
  ParsedExprKind kind;

  // kColumn
  std::string table;   // optional qualifier
  std::string column;  // column name; also function name for kCall

  // kLiteral
  Value literal;

  // kBinary / kUnary: operator spelled in upper case ("=", "AND", "NOT", "-")
  std::string op;

  // Children: binary -> {l, r}; unary -> {c}; call -> args;
  // IS NULL/LIKE/IN -> {child}; BETWEEN -> {child, lo, hi};
  // CASE -> {when1, then1, when2, then2, ..., [else]}.
  std::vector<ParsedExprPtr> children;

  bool negated = false;     // NOT LIKE / NOT IN / NOT BETWEEN / IS NOT NULL
  bool distinct = false;    // COUNT(DISTINCT x)
  std::string pattern;      // kLike pattern text
  std::vector<Value> in_values;  // kInList literal values
  TypeId cast_type = TypeId::kInvalid;  // kCast target
  bool case_has_else = false;           // kCase: children includes ELSE
  std::vector<double> vector_values;    // kVectorLiteral components

  /// Debug rendering, close to SQL.
  std::string ToString() const;
};

ParsedExprPtr MakeParsedColumn(std::string table, std::string column);
ParsedExprPtr MakeParsedLiteral(Value v);
ParsedExprPtr MakeParsedBinary(std::string op, ParsedExprPtr l,
                               ParsedExprPtr r);

/// Join syntax kinds supported by the planner.
enum class JoinKind { kInner, kLeft, kCross };

/// A base table reference with an optional alias.
struct TableRef {
  std::string name;
  std::string alias;  // empty = use name

  const std::string& effective_name() const {
    return alias.empty() ? name : alias;
  }
};

/// An explicit JOIN clause: `JOIN table [alias] ON condition`.
struct JoinClause {
  JoinKind kind = JoinKind::kInner;
  TableRef table;
  ParsedExprPtr condition;  // null for CROSS JOIN
};

struct SelectItem {
  ParsedExprPtr expr;  // null when is_star
  std::string alias;
  bool is_star = false;
};

struct OrderByItem {
  ParsedExprPtr expr;
  bool descending = false;
};

/// SELECT ... FROM ... [JOIN ...] [WHERE] [GROUP BY] [HAVING]
/// [UNION [ALL] SELECT ...]* [ORDER BY] [LIMIT [OFFSET]].
///
/// ORDER BY / LIMIT always attach to the outermost (whole-union) level.
struct SelectStatement {
  std::vector<SelectItem> items;
  bool distinct = false;
  std::vector<TableRef> from;      // comma-separated relations
  std::vector<JoinClause> joins;   // explicit JOINs applied left-to-right
  ParsedExprPtr where;             // may be null
  std::vector<ParsedExprPtr> group_by;
  ParsedExprPtr having;            // may be null

  /// Further SELECT cores combined with this one. If any part has
  /// all == false (plain UNION), the combined result is deduplicated.
  struct UnionPart {
    bool all;
    std::shared_ptr<SelectStatement> select;
  };
  std::vector<UnionPart> union_parts;

  std::vector<OrderByItem> order_by;
  int64_t limit = -1;   // -1 = none
  int64_t offset = 0;
};

struct ColumnDef {
  std::string name;
  TypeId type;
};

struct CreateTableStatement {
  std::string table;
  std::vector<ColumnDef> columns;
  bool if_not_exists = false;
};

struct DropTableStatement {
  std::string table;
  bool if_exists = false;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;  // empty = full schema order
  std::vector<std::vector<ParsedExprPtr>> rows;
};

struct CreateIndexStatement {
  std::string index;
  std::string table;
  std::string column;
};

/// UPDATE t SET col = expr [, ...] [WHERE pred].
struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, ParsedExprPtr>> assignments;
  ParsedExprPtr where;  // may be null (updates every row)
};

/// DELETE FROM t [WHERE pred].
struct DeleteStatement {
  std::string table;
  ParsedExprPtr where;  // may be null (deletes every row)
};

/// COPY t FROM 'file.csv' | COPY t TO 'file.csv'.
struct CopyStatement {
  std::string table;
  std::string path;
  bool is_from = true;  // FROM = import, TO = export
};

/// A parsed SQL statement. `explain` wraps SELECTs.
struct Statement {
  std::variant<SelectStatement, CreateTableStatement, DropTableStatement,
               InsertStatement, CreateIndexStatement, UpdateStatement,
               DeleteStatement, CopyStatement>
      node;
  bool explain = false;  // EXPLAIN SELECT ...
  bool analyze = false;  // EXPLAIN ANALYZE SELECT ... (implies explain)

  /// True when running the statement never mutates engine state: a
  /// SELECT, bare or wrapped in EXPLAIN [ANALYZE]. EXPLAIN around any
  /// other kind is a write here (Database::Execute rejects it), so the
  /// server never runs it on the shared side of its engine lock.
  bool read_only() const {
    return std::holds_alternative<SelectStatement>(node);
  }
};

}  // namespace agora

#endif  // AGORA_SQL_AST_H_
