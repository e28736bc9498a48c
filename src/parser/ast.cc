#include "parser/ast.h"

#include "common/status.h"

namespace recdb {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNot;
  e->left = std::move(operand);
  return e;
}

ExprPtr Expr::MakeNegate(ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNegate;
  e->left = std::move(operand);
  return e;
}

ExprPtr Expr::MakeFunctionCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->func_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::MakeInList(ExprPtr needle, std::vector<ExprPtr> list,
                         bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kInList;
  e->left = std::move(needle);
  e->args = std::move(list);
  e->negated = negated;
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->qualifier = qualifier;
  e->column = column;
  e->op = op;
  e->func_name = func_name;
  e->negated = negated;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    // Built by appending to a local: GCC 12 reports a false -Wrestrict on
    // the inlined `"literal" + std::string&&` operator.
    case ExprKind::kLiteral: {
      if (literal.type() != TypeId::kString) return literal.ToString();
      std::string out = "'";
      out += literal.ToString();
      out += "'";
      return out;
    }
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kBinary: {
      std::string out = "(";
      out += left->ToString();
      out += " ";
      out += BinaryOpToString(op);
      out += " ";
      out += right->ToString();
      out += ")";
      return out;
    }
    case ExprKind::kNot: {
      std::string out = "NOT ";
      out += left->ToString();
      return out;
    }
    case ExprKind::kNegate: {
      std::string out = "-";
      out += left->ToString();
      return out;
    }
    case ExprKind::kFunctionCall: {
      std::string out = func_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kInList: {
      std::string out = left->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace recdb
