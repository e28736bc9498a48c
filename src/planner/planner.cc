#include "planner/planner.h"

#include "common/string_util.h"
#include "common/task_scheduler.h"

namespace recdb {

std::string PlannerOptionsSummary(const PlannerOptions& options) {
  auto onoff = [](bool b) { return b ? "on" : "off"; };
  return StringFormat(
      "options: filter_recommend=%s join_recommend=%s index_recommend=%s "
      "hash_join=%s cost_based=%s parallelism=%zu",
      onoff(options.enable_filter_recommend),
      onoff(options.enable_join_recommend),
      onoff(options.enable_index_recommend), onoff(options.enable_hash_join),
      onoff(options.enable_cost_based), TaskScheduler::Global().num_threads());
}

namespace {

/// Aggregate function name -> kind (lower-cased names; parser lower-cases
/// function names).
std::optional<AggKind> AggKindFromName(const std::string& name) {
  if (name == "count") return AggKind::kCount;
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  return std::nullopt;
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall &&
      AggKindFromName(e.func_name).has_value()) {
    return true;
  }
  if (e.left && ContainsAggregate(*e.left)) return true;
  if (e.right && ContainsAggregate(*e.right)) return true;
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
}

/// State threaded through the aggregation rewrite: the GROUP BY expression
/// strings and the aggregate calls collected so far (deduplicated by their
/// textual form).
struct AggRewrite {
  std::vector<std::string> group_strs;
  std::vector<bool> group_is_colref;
  std::vector<std::pair<AggKind, ExprPtr>> aggs;  // arg null for COUNT(*)
  std::vector<std::string> agg_strs;
};

/// Rewrite an expression for evaluation above the Aggregate node: GROUP BY
/// subexpressions become references to the group columns, aggregate calls
/// become references to the synthetic __aggN columns.
Status RewriteForAggregation(ExprPtr* ep, AggRewrite* rw) {
  Expr& e = **ep;
  std::string text = e.ToString();
  for (size_t k = 0; k < rw->group_strs.size(); ++k) {
    if (text == rw->group_strs[k]) {
      // Plain column refs survive (the aggregate output keeps their name);
      // computed group keys are renamed to their synthetic column.
      if (!rw->group_is_colref[k]) {
        *ep = Expr::MakeColumnRef("", "__grp" + std::to_string(k));
      }
      return Status::OK();
    }
  }
  if (e.kind == ExprKind::kFunctionCall) {
    if (auto kind = AggKindFromName(e.func_name)) {
      if (e.args.size() != 1) {
        return Status::BindError(e.func_name + " expects one argument");
      }
      bool star = e.args[0]->kind == ExprKind::kColumnRef &&
                  e.args[0]->column == "*";
      if (star && *kind != AggKind::kCount) {
        return Status::BindError("'*' argument is only valid in COUNT(*)");
      }
      if (!star && ContainsAggregate(*e.args[0])) {
        return Status::BindError("nested aggregate functions");
      }
      size_t idx;
      for (idx = 0; idx < rw->agg_strs.size(); ++idx) {
        if (rw->agg_strs[idx] == text) break;
      }
      if (idx == rw->agg_strs.size()) {
        rw->agg_strs.push_back(text);
        rw->aggs.emplace_back(star ? AggKind::kCountStar : *kind,
                              star ? nullptr : e.args[0]->Clone());
      }
      *ep = Expr::MakeColumnRef("", "__agg" + std::to_string(idx));
      return Status::OK();
    }
  }
  if (e.left) RECDB_RETURN_NOT_OK(RewriteForAggregation(&e.left, rw));
  if (e.right) RECDB_RETURN_NOT_OK(RewriteForAggregation(&e.right, rw));
  for (auto& a : e.args) RECDB_RETURN_NOT_OK(RewriteForAggregation(&a, rw));
  return Status::OK();
}

}  // namespace

Result<size_t> Planner::FindRecommendTarget(
    const SelectStatement& stmt) const {
  RECDB_DCHECK(stmt.recommend.has_value());
  const RecommendClause& rc = *stmt.recommend;
  // The clause's three column refs must agree on their qualifier.
  const std::string& q = rc.user_col->qualifier;
  if (rc.item_col->qualifier != q || rc.rating_col->qualifier != q) {
    return Status::BindError(
        "RECOMMEND clause columns must reference the same table");
  }
  if (q.empty()) {
    if (stmt.from.size() != 1) {
      return Status::BindError(
          "unqualified RECOMMEND columns are ambiguous with multiple tables");
    }
    return size_t{0};
  }
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    if (EqualsIgnoreCase(stmt.from[i].EffectiveAlias(), q)) return i;
  }
  return Status::BindError("RECOMMEND clause references unknown alias " + q);
}

Result<PlanNodePtr> Planner::PlanTableRef(const SelectStatement& stmt,
                                          const TableRef& ref,
                                          bool is_recommend_target) {
  RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(ref.table_name));
  // The table's schema, with this reference's alias on every column.
  ExecSchema schema;
  for (const auto& col : table->schema.columns()) {
    schema.Add(ExecColumn{ref.EffectiveAlias(), col.name, col.type});
  }

  if (!is_recommend_target) {
    auto scan = std::make_unique<SeqScanPlan>();
    scan->table = table;
    scan->alias = ref.EffectiveAlias();
    scan->schema = std::move(schema);
    return PlanNodePtr(std::move(scan));
  }

  const RecommendClause& rc = *stmt.recommend;
  RecAlgorithm algo = kDefaultAlgorithm;
  if (rc.algorithm.has_value()) {
    RECDB_ASSIGN_OR_RETURN(algo, RecAlgorithmFromString(*rc.algorithm));
  }
  RECDB_ASSIGN_OR_RETURN(Recommender * rec,
                         registry_->Find(ref.table_name, algo));
  if (rec->model() == nullptr) {
    return Status::PlanError("recommender " + rec->name() +
                             " has not been initialized");
  }

  auto node = std::make_unique<RecommendPlan>();
  node->rec = rec;
  node->table = table;
  node->alias = ref.EffectiveAlias();
  node->include_rated = options_.include_rated;
  RECDB_ASSIGN_OR_RETURN(node->user_col_idx,
                         table->schema.IndexOf(rc.user_col->column));
  RECDB_ASSIGN_OR_RETURN(node->item_col_idx,
                         table->schema.IndexOf(rc.item_col->column));
  RECDB_ASSIGN_OR_RETURN(node->rating_col_idx,
                         table->schema.IndexOf(rc.rating_col->column));
  // Predicted scores are doubles regardless of the stored rating type.
  {
    std::vector<ExecColumn> cols = schema.columns();
    cols[node->rating_col_idx].type = TypeId::kDouble;
    node->schema = ExecSchema(std::move(cols));
  }
  return PlanNodePtr(std::move(node));
}

Result<PlannedQuery> Planner::PlanSelect(const SelectStatement& stmt) {
  if (stmt.from.empty()) {
    return Status::PlanError("FROM clause is required");
  }
  // Reject duplicate aliases.
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    for (size_t j = i + 1; j < stmt.from.size(); ++j) {
      if (EqualsIgnoreCase(stmt.from[i].EffectiveAlias(),
                           stmt.from[j].EffectiveAlias())) {
        return Status::BindError("duplicate table alias " +
                                 stmt.from[i].EffectiveAlias());
      }
    }
  }

  size_t rec_target = stmt.from.size();  // sentinel: none
  if (stmt.recommend.has_value()) {
    RECDB_ASSIGN_OR_RETURN(rec_target, FindRecommendTarget(stmt));
  }

  // Base inputs, combined left-deep with cross joins (predicates arrive via
  // WHERE and are pushed down by the optimizer).
  PlanNodePtr root;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    RECDB_ASSIGN_OR_RETURN(
        auto input, PlanTableRef(stmt, stmt.from[i], i == rec_target));
    if (root == nullptr) {
      root = std::move(input);
    } else {
      auto join = std::make_unique<NestedLoopJoinPlan>();
      join->schema = ExecSchema::Concat(root->schema, input->schema);
      join->children.push_back(std::move(root));
      join->children.push_back(std::move(input));
      root = std::move(join);
    }
  }

  if (stmt.where != nullptr) {
    auto filter = std::make_unique<FilterPlan>();
    RECDB_ASSIGN_OR_RETURN(filter->predicate,
                           BindExpr(*stmt.where, root->schema));
    filter->schema = root->schema;
    filter->children.push_back(std::move(root));
    root = std::move(filter);
  }

  // Aggregation stage: triggered by GROUP BY or by aggregate calls in the
  // select list / ORDER BY. Select-list and ORDER BY expressions are
  // rewritten to reference the Aggregate node's output columns.
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr)) has_agg = true;
  }
  for (const auto& ob : stmt.order_by) {
    if (ContainsAggregate(*ob.expr)) has_agg = true;
  }
  if (stmt.having != nullptr && !has_agg) {
    return Status::BindError(
        "HAVING requires GROUP BY or aggregate functions");
  }
  std::vector<ExprPtr> rewritten_items;   // parallel to stmt.items
  std::vector<ExprPtr> rewritten_order;   // parallel to stmt.order_by
  ExprPtr rewritten_having;
  if (has_agg) {
    AggRewrite rw;
    auto agg = std::make_unique<AggregatePlan>();
    ExecSchema agg_schema;
    for (size_t k = 0; k < stmt.group_by.size(); ++k) {
      const Expr& g = *stmt.group_by[k];
      rw.group_strs.push_back(g.ToString());
      rw.group_is_colref.push_back(g.kind == ExprKind::kColumnRef);
      RECDB_ASSIGN_OR_RETURN(auto bound, BindExpr(g, root->schema));
      if (g.kind == ExprKind::kColumnRef) {
        agg_schema.Add(root->schema.ColumnAt(bound->column_idx));
      } else {
        agg_schema.Add(
            ExecColumn{"", "__grp" + std::to_string(k), TypeId::kNull});
      }
      agg->group_keys.push_back(std::move(bound));
    }
    for (const auto& item : stmt.items) {
      if (item.is_star) {
        return Status::BindError("SELECT * cannot be combined with GROUP BY "
                                 "or aggregate functions");
      }
      ExprPtr clone = item.expr->Clone();
      RECDB_RETURN_NOT_OK(RewriteForAggregation(&clone, &rw));
      rewritten_items.push_back(std::move(clone));
    }
    for (const auto& ob : stmt.order_by) {
      ExprPtr clone = ob.expr->Clone();
      RECDB_RETURN_NOT_OK(RewriteForAggregation(&clone, &rw));
      rewritten_order.push_back(std::move(clone));
    }
    if (stmt.having != nullptr) {
      rewritten_having = stmt.having->Clone();
      RECDB_RETURN_NOT_OK(RewriteForAggregation(&rewritten_having, &rw));
    }
    for (size_t i = 0; i < rw.aggs.size(); ++i) {
      auto& [kind, arg_ast] = rw.aggs[i];
      AggregatePlan::Agg spec;
      spec.kind = kind;
      if (arg_ast != nullptr) {
        RECDB_ASSIGN_OR_RETURN(spec.arg, BindExpr(*arg_ast, root->schema));
      }
      TypeId out_type =
          (kind == AggKind::kCount || kind == AggKind::kCountStar)
              ? TypeId::kInt64
              : (kind == AggKind::kSum || kind == AggKind::kAvg
                     ? TypeId::kDouble
                     : TypeId::kNull);
      agg_schema.Add(ExecColumn{"", "__agg" + std::to_string(i), out_type});
      agg->aggs.push_back(std::move(spec));
    }
    agg->schema = std::move(agg_schema);
    agg->children.push_back(std::move(root));
    root = std::move(agg);

    if (stmt.having != nullptr) {
      // HAVING was rewritten against the aggregate's output like the select
      // list; it becomes a plain filter above the Aggregate node.
      auto having_filter = std::make_unique<FilterPlan>();
      RECDB_ASSIGN_OR_RETURN(having_filter->predicate,
                             BindExpr(*rewritten_having, root->schema));
      having_filter->schema = root->schema;
      having_filter->children.push_back(std::move(root));
      root = std::move(having_filter);
    }
  }

  // ORDER BY / LIMIT before projection, so sort keys can reference columns
  // the projection drops.
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      const auto& ob = stmt.order_by[i];
      const Expr& expr = has_agg ? *rewritten_order[i] : *ob.expr;
      SortKey k;
      RECDB_ASSIGN_OR_RETURN(k.expr, BindExpr(expr, root->schema));
      k.desc = ob.desc;
      keys.push_back(std::move(k));
    }
    // With DISTINCT, the limit must apply after duplicate elimination
    // (which happens in the projection), so it is planned above the
    // projection below; use a full sort here instead of TopN.
    if (stmt.limit.has_value() && !stmt.distinct) {
      auto topn = std::make_unique<TopNPlan>();
      topn->keys = std::move(keys);
      topn->n = static_cast<size_t>(*stmt.limit);
      topn->schema = root->schema;
      topn->children.push_back(std::move(root));
      root = std::move(topn);
    } else {
      auto sort = std::make_unique<SortPlan>();
      sort->keys = std::move(keys);
      sort->schema = root->schema;
      sort->children.push_back(std::move(root));
      root = std::move(sort);
    }
  } else if (stmt.limit.has_value() && !stmt.distinct) {
    auto limit = std::make_unique<LimitPlan>();
    limit->n = static_cast<size_t>(*stmt.limit);
    limit->schema = root->schema;
    limit->children.push_back(std::move(root));
    root = std::move(limit);
  }

  // Projection.
  auto project = std::make_unique<ProjectPlan>();
  std::vector<std::string> names;
  ExecSchema out_schema;
  for (size_t item_idx = 0; item_idx < stmt.items.size(); ++item_idx) {
    const auto& item = stmt.items[item_idx];
    if (item.is_star) {
      for (size_t i = 0; i < root->schema.NumColumns(); ++i) {
        const auto& col = root->schema.ColumnAt(i);
        project->exprs.push_back(BoundExpr::MakeColumn(i));
        names.push_back(col.name);
        out_schema.Add(col);
      }
      continue;
    }
    const Expr& to_bind =
        has_agg ? *rewritten_items[item_idx] : *item.expr;
    RECDB_ASSIGN_OR_RETURN(auto bound, BindExpr(to_bind, root->schema));
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == ExprKind::kColumnRef ? item.expr->column
                                                     : item.expr->ToString();
    }
    TypeId type = TypeId::kNull;
    if (bound->kind == BoundExprKind::kColumn) {
      type = root->schema.ColumnAt(bound->column_idx).type;
    } else if (bound->kind == BoundExprKind::kConstant) {
      type = bound->constant.type();
    }
    project->exprs.push_back(std::move(bound));
    names.push_back(std::move(name));
    out_schema.Add(ExecColumn{"", names.back(), type});
  }
  project->schema = std::move(out_schema);
  project->distinct = stmt.distinct;
  project->children.push_back(std::move(root));
  PlanNodePtr top = std::move(project);

  // DISTINCT + LIMIT: the limit goes above the de-duplicating projection.
  if (stmt.distinct && stmt.limit.has_value()) {
    auto limit = std::make_unique<LimitPlan>();
    limit->n = static_cast<size_t>(*stmt.limit);
    limit->schema = top->schema;
    limit->children.push_back(std::move(top));
    top = std::move(limit);
  }

  PlannedQuery out;
  out.plan = std::move(top);
  out.output_names = std::move(names);
  return out;
}

}  // namespace recdb
