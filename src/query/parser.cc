#include "query/parser.h"

#include <cctype>
#include <charconv>
#include <limits>

#include "query/lexer.h"

namespace themis {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Token cursor with positioned error helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() {
    return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_];
  }
  bool Done() const { return Peek().Is(TokenKind::kEnd); }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(msg + " at position " +
                                   std::to_string(Peek().position) +
                                   (Peek().text.empty()
                                        ? ""
                                        : " (near '" + Peek().text + "')"));
  }

  Status Expect(TokenKind kind, const std::string& what) {
    if (!Peek().Is(kind)) return Error("expected " + what);
    Next();
    return Status::OK();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<CompareOp> ParseOp(const std::string& text) {
  if (text == "=") return CompareOp::kEq;
  if (text == "!=") return CompareOp::kNe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == ">") return CompareOp::kGt;
  if (text == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("unknown comparison operator '" + text + "'");
}

// field_ref := ident '.' ident
Result<FieldRef> ParseFieldRef(Cursor* c) {
  if (!c->Peek().Is(TokenKind::kIdentifier)) {
    return c->Error("expected stream identifier");
  }
  FieldRef ref;
  ref.stream = c->Next().text;
  THEMIS_RETURN_NOT_OK(c->Expect(TokenKind::kDot, "'.'"));
  if (!c->Peek().Is(TokenKind::kIdentifier)) {
    return c->Error("expected field identifier");
  }
  ref.field = c->Next().text;
  return ref;
}

// operand := field_ref | number
Result<Operand> ParseOperand(Cursor* c) {
  Operand op;
  if (c->Peek().Is(TokenKind::kNumber)) {
    op.is_field = false;
    op.literal = c->Next().number;
    return op;
  }
  auto field = ParseFieldRef(c);
  if (!field.ok()) return field.status();
  op.is_field = true;
  op.field = *field;
  return op;
}

// condition_list := condition ('and' condition)*
Result<std::vector<Condition>> ParseConditions(Cursor* c) {
  std::vector<Condition> conditions;
  while (true) {
    Condition cond;
    auto lhs = ParseOperand(c);
    if (!lhs.ok()) return lhs.status();
    cond.lhs = *lhs;
    if (!c->Peek().Is(TokenKind::kOperator)) {
      return c->Error("expected comparison operator");
    }
    auto op = ParseOp(c->Next().text);
    if (!op.ok()) return op.status();
    cond.op = *op;
    auto rhs = ParseOperand(c);
    if (!rhs.ok()) return rhs.status();
    cond.rhs = *rhs;
    conditions.push_back(std::move(cond));
    if (c->Peek().IsWord("and")) {
      c->Next();
      continue;
    }
    break;
  }
  return conditions;
}

// window := '[' 'Range' number ('sec' | 'ms' | 'min') ']'
Result<SimDuration> ParseWindow(Cursor* c) {
  THEMIS_RETURN_NOT_OK(c->Expect(TokenKind::kLBracket, "'['"));
  if (!c->Peek().IsWord("range")) return c->Error("expected 'Range'");
  c->Next();
  if (!c->Peek().Is(TokenKind::kNumber)) {
    return c->Error("expected window size");
  }
  const size_t size_pos = c->Peek().position;
  double amount = c->Next().number;
  SimDuration unit;
  if (c->Peek().IsWord("sec") || c->Peek().IsWord("s")) {
    unit = kSecond;
  } else if (c->Peek().IsWord("ms") || c->Peek().IsWord("msec")) {
    unit = kMillisecond;
  } else if (c->Peek().IsWord("min")) {
    unit = 60 * kSecond;
  } else {
    return c->Error("expected time unit (sec/ms/min)");
  }
  c->Next();
  THEMIS_RETURN_NOT_OK(c->Expect(TokenKind::kRBracket, "']'"));
  // Checked in double before the cast: a window under 1 µs would divide by
  // zero in the operators, and one past INT64_MAX µs does not fit.
  // INT64_MAX rounds up to 2^63 in double, so `<` admits exactly the
  // values that cast safely.
  constexpr double kMaxUs =
      static_cast<double>(std::numeric_limits<SimDuration>::max());
  double us = amount * static_cast<double>(unit);
  if (!(us >= 1.0 && us < kMaxUs)) {
    return Status::InvalidArgument(
        "window range must be between 1 us and INT64_MAX us at position " +
        std::to_string(size_pos));
  }
  return static_cast<SimDuration>(us);
}

// func := ident '(' field_ref (',' field_ref)* ')'
Result<SelectFunc> ParseFunc(Cursor* c) {
  if (!c->Peek().Is(TokenKind::kIdentifier)) {
    return c->Error("expected select function");
  }
  SelectFunc func;
  const size_t func_pos = c->Peek().position;
  std::string raw = Lower(c->Next().text);
  // TopN: "top" followed by digits.
  if (raw.rfind("top", 0) == 0 && raw.size() > 3 &&
      std::isdigit(static_cast<unsigned char>(raw[3]))) {
    func.name = "top";
    std::from_chars_result n =
        std::from_chars(raw.data() + 3, raw.data() + raw.size(), func.top_k);
    if (n.ec != std::errc()) {
      return Status::InvalidArgument(
          "TopN count out of range at position " + std::to_string(func_pos) +
          " (near '" + raw + "')");
    }
  } else {
    func.name = raw;
  }
  THEMIS_RETURN_NOT_OK(c->Expect(TokenKind::kLParen, "'('"));
  while (true) {
    auto arg = ParseFieldRef(c);
    if (!arg.ok()) return arg.status();
    func.args.push_back(*arg);
    if (c->Peek().Is(TokenKind::kComma)) {
      c->Next();
      continue;
    }
    break;
  }
  THEMIS_RETURN_NOT_OK(c->Expect(TokenKind::kRParen, "')'"));
  return func;
}

}  // namespace

bool EvalCompare(CompareOp op, double lhs, double rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

Result<SelectStmt> ParseQuery(const std::string& input) {
  auto lexed = Lex(input);
  if (!lexed.ok()) return lexed.status();
  Cursor c(std::move(lexed).TakeValue());

  SelectStmt stmt;
  if (!c.Peek().IsWord("select")) return c.Error("expected 'Select'");
  c.Next();

  auto func = ParseFunc(&c);
  if (!func.ok()) return func.status();
  stmt.func = *func;

  if (!c.Peek().IsWord("from")) return c.Error("expected 'From'");
  c.Next();

  while (true) {
    if (!c.Peek().Is(TokenKind::kIdentifier)) {
      return c.Error("expected stream name");
    }
    StreamRef stream;
    stream.name = c.Next().text;
    auto window = ParseWindow(&c);
    if (!window.ok()) return window.status();
    stream.range = *window;
    stmt.streams.push_back(std::move(stream));
    if (c.Peek().Is(TokenKind::kComma)) {
      c.Next();
      continue;
    }
    break;
  }

  if (c.Peek().IsWord("where")) {
    c.Next();
    auto conditions = ParseConditions(&c);
    if (!conditions.ok()) return conditions.status();
    stmt.where = std::move(*conditions);
  }
  if (c.Peek().IsWord("having")) {
    c.Next();
    auto conditions = ParseConditions(&c);
    if (!conditions.ok()) return conditions.status();
    stmt.having = std::move(*conditions);
  }
  if (!c.Done()) return c.Error("unexpected trailing input");
  return stmt;
}

}  // namespace themis
