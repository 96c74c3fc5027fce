#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace ncfn::lp {

namespace {

constexpr double kTolPivot = 1e-9;
constexpr double kTolFeas = 1e-7;
constexpr double kTolCost = 1e-9;

/// One independent block as a dense tableau: m rows x (ncols + 1);
/// column ncols holds the RHS. Local columns are the block's structural
/// variables, then its slack/surplus columns, then its artificials, each
/// in global order, so every local "lowest index" is the global one.
struct Block {
  int m = 0;
  int ncols = 0;
  int art_begin = 0;
  std::vector<int> vars;       // structural column -> variable
  std::vector<int> gcol;       // local column -> column of the one tableau
  std::vector<double> a;       // row-major, m * (ncols + 1)
  std::vector<int> basis;      // basic column per row
  std::vector<double> cost;    // reduced-cost row, length ncols
  std::vector<bool> enterable;
  std::vector<int> nonzero;    // pivot-row scratch
  int dantzig = -1;  // first column with the largest reduced cost > kTolCost
  int bland = -1;    // first column with reduced cost > kTolCost

  double& at(int r, int c) { return a[static_cast<std::size_t>(r) * (ncols + 1) + c]; }
  [[nodiscard]] double get(int r, int c) const {
    return a[static_cast<std::size_t>(r) * (ncols + 1) + c];
  }
  double& rhs(int r) { return at(r, ncols); }
  [[nodiscard]] int nstruct() const { return static_cast<int>(vars.size()); }

  void pivot(int pr, int pc, double& objval) {
    const double pv = at(pr, pc);
    assert(std::abs(pv) > kTolPivot);
    const double inv = 1.0 / pv;
    // Scale the pivot row and list its nonzero columns: the other rows
    // and the cost row change only there and in the RHS. (Subtracting
    // f * 0 could at most flip the sign of a zero, which no pricing,
    // ratio test or solution value reads.)
    nonzero.clear();
    for (int c = 0; c < ncols; ++c) {
      double& v = at(pr, c);
      v *= inv;
      if (v != 0.0 && c != pc) nonzero.push_back(c);
    }
    at(pr, pc) = 1.0;  // fight rounding
    const double prhs = (rhs(pr) *= inv);
    for (int r = 0; r < m; ++r) {
      if (r == pr) continue;
      const double f = at(r, pc);
      if (std::abs(f) < kTolPivot) continue;
      for (const int c : nonzero) at(r, c) -= f * get(pr, c);
      rhs(r) -= f * prhs;
      at(r, pc) = 0.0;
    }
    const double fc = cost[static_cast<std::size_t>(pc)];
    if (std::abs(fc) > 0) {
      for (const int c : nonzero) {
        cost[static_cast<std::size_t>(c)] -= fc * get(pr, c);
      }
      objval += fc * prhs;
      cost[static_cast<std::size_t>(pc)] = 0.0;
    }
    basis[static_cast<std::size_t>(pr)] = pc;
  }

  /// Refresh the cached entering candidates from the cost row.
  void price() {
    dantzig = bland = -1;
    double best = kTolCost;
    for (int c = 0; c < ncols; ++c) {
      if (!enterable[static_cast<std::size_t>(c)]) continue;
      const double rc = cost[static_cast<std::size_t>(c)];
      if (rc > best) {
        if (bland < 0) bland = c;
        dantzig = c;
        best = rc;
      }
    }
  }
};

/// A row of the tableau by its global index: its block and local row.
struct RowAt {
  int block;
  int row;
};

/// Runs the simplex loop (maximization) on the current cost rows. This is
/// the loop of the one tableau over all blocks: the entering column is
/// the best block candidate (lowest global column on ties), a pivot
/// touches only its own block, and the degenerate streak, the budget and
/// `objval` are shared.
Status run_simplex(std::vector<Block>& blocks, int total_cols, double& objval,
                   std::size_t& iters_left, std::uint64_t& pivots) {
  for (Block& b : blocks) b.price();
  int degenerate_streak = 0;
  while (iters_left > 0) {
    --iters_left;
    const bool bland = degenerate_streak > 2 * total_cols;

    // Entering column: positive reduced cost.
    Block* t = nullptr;
    int pc = -1;
    for (Block& b : blocks) {
      const int c = bland ? b.bland : b.dantzig;
      if (c < 0) continue;
      if (t != nullptr) {
        const double rc = b.cost[static_cast<std::size_t>(c)];
        const double best = t->cost[static_cast<std::size_t>(pc)];
        const bool first = b.gcol[static_cast<std::size_t>(c)] <
                           t->gcol[static_cast<std::size_t>(pc)];
        if (bland ? !first : (rc < best || (rc == best && !first))) continue;
      }
      t = &b;
      pc = c;
    }
    if (t == nullptr) return Status::kOptimal;

    // Ratio test.
    int pr = -1;
    double best_ratio = 0.0;
    for (int r = 0; r < t->m; ++r) {
      const double arc = t->get(r, pc);
      if (arc <= kTolPivot) continue;
      const double ratio = t->get(r, t->ncols) / arc;
      if (pr < 0 || ratio < best_ratio - kTolPivot ||
          (std::abs(ratio - best_ratio) <= kTolPivot &&
           t->basis[static_cast<std::size_t>(r)] <
               t->basis[static_cast<std::size_t>(pr)])) {
        pr = r;
        best_ratio = ratio;
      }
    }
    if (pr < 0) return Status::kUnbounded;

    degenerate_streak = best_ratio < kTolPivot ? degenerate_streak + 1 : 0;
    t->pivot(pr, pc, objval);
    ++pivots;
    t->price();
  }
  return Status::kIterLimit;
}

}  // namespace

int Problem::add_var(double obj, double hi) {
  obj_.push_back(obj);
  hi_.push_back(hi);
  return static_cast<int>(obj_.size() - 1);
}

void Problem::add_constraint(std::vector<Term> terms, Rel rel, double rhs) {
  for ([[maybe_unused]] const Term& t : terms) {
    assert(t.var >= 0 && t.var < num_vars());
  }
  rows_.push_back(Row{std::move(terms), rel, rhs});
}

Solution Problem::solve(std::size_t max_iters) const {
  const int n = num_vars();

  // All rows in tableau order: user rows, then one row per finite upper
  // bound.
  std::vector<Row> bound_rows;
  for (int v = 0; v < n; ++v) {
    const double hi = hi_[static_cast<std::size_t>(v)];
    if (std::isfinite(hi)) bound_rows.push_back(Row{{{v, 1.0}}, Rel::kLe, hi});
  }
  std::vector<const Row*> rows;
  rows.reserve(rows_.size() + bound_rows.size());
  for (const Row& r : rows_) rows.push_back(&r);
  for (const Row& r : bound_rows) rows.push_back(&r);
  const int m = static_cast<int>(rows.size());

  // Normalize RHS >= 0: a row with a negative RHS is negated.
  std::vector<Rel> rel(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    const Row& row = *rows[static_cast<std::size_t>(r)];
    rel[static_cast<std::size_t>(r)] = row.rel;
    if (row.rhs < 0 && row.rel != Rel::kEq) {
      rel[static_cast<std::size_t>(r)] = row.rel == Rel::kLe ? Rel::kGe : Rel::kLe;
    }
  }

  // Blocks: union-find over the variables each row touches. A row with
  // no terms is a block of its own.
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  for (const Row& r : rows_) {
    for (const Term& t : r.terms) {
      const int a = find(r.terms.front().var), b = find(t.var);
      parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    }
  }
  std::vector<Block> blocks;
  std::vector<int> block_of(static_cast<std::size_t>(n), -1);  // by root
  std::vector<int> local_of(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    int& b = block_of[static_cast<std::size_t>(find(v))];
    if (b < 0) {
      b = static_cast<int>(blocks.size());
      blocks.emplace_back();
    }
    Block& blk = blocks[static_cast<std::size_t>(b)];
    local_of[static_cast<std::size_t>(v)] = blk.nstruct();
    blk.vars.push_back(v);
  }
  std::vector<RowAt> row_at(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    const Row& row = *rows[static_cast<std::size_t>(r)];
    int b = -1;
    if (row.terms.empty()) {
      b = static_cast<int>(blocks.size());
      blocks.emplace_back();
    } else {
      b = block_of[static_cast<std::size_t>(find(row.terms.front().var))];
    }
    row_at[static_cast<std::size_t>(r)] = RowAt{b, blocks[static_cast<std::size_t>(b)].m++};
  }

  // Column layout of the one tableau: [0,n) structural, then one
  // slack/surplus per inequality, then artificials for >= and == rows.
  // Each block keeps that order for its own columns.
  int num_slack = 0, num_art = 0;
  std::vector<int> slack_col(blocks.size(), 0), art_col(blocks.size(), 0);
  for (int r = 0; r < m; ++r) {
    const auto b = static_cast<std::size_t>(row_at[static_cast<std::size_t>(r)].block);
    if (rel[static_cast<std::size_t>(r)] != Rel::kEq) ++num_slack, ++slack_col[b];
    if (rel[static_cast<std::size_t>(r)] != Rel::kLe) ++num_art, ++art_col[b];
  }
  const int total_cols = n + num_slack + num_art;
  const int art_begin = n + num_slack;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    // From here on slack_col/art_col hold each block's next free column.
    Block& blk = blocks[b];
    blk.art_begin = blk.nstruct() + slack_col[b];
    blk.ncols = blk.art_begin + art_col[b];
    slack_col[b] = blk.nstruct();
    art_col[b] = blk.art_begin;
    blk.a.assign(static_cast<std::size_t>(blk.m) * (blk.ncols + 1), 0.0);
    blk.basis.assign(static_cast<std::size_t>(blk.m), -1);
    blk.cost.assign(static_cast<std::size_t>(blk.ncols), 0.0);
    blk.enterable.assign(static_cast<std::size_t>(blk.ncols), true);
    blk.gcol.assign(blk.vars.begin(), blk.vars.end());
    blk.gcol.resize(static_cast<std::size_t>(blk.ncols));
  }
  int next_slack = n, next_art = art_begin;
  for (int r = 0; r < m; ++r) {
    const Row& row = *rows[static_cast<std::size_t>(r)];
    const auto [b, lr] = row_at[static_cast<std::size_t>(r)];
    Block& t = blocks[static_cast<std::size_t>(b)];
    for (const Term& term : row.terms) {
      t.at(lr, local_of[static_cast<std::size_t>(term.var)]) += term.coeff;
    }
    double rhs = row.rhs;
    if (rhs < 0) {
      for (int c = 0; c < t.nstruct(); ++c) t.at(lr, c) = -t.at(lr, c);
      rhs = -rhs;
    }
    t.rhs(lr) = rhs;
    int& slack = slack_col[static_cast<std::size_t>(b)];
    int& art = art_col[static_cast<std::size_t>(b)];
    const Rel rr = rel[static_cast<std::size_t>(r)];
    if (rr != Rel::kEq) {
      t.at(lr, slack) = rr == Rel::kLe ? 1.0 : -1.0;  // slack or surplus
      t.gcol[static_cast<std::size_t>(slack)] = next_slack++;
      if (rr == Rel::kLe) t.basis[static_cast<std::size_t>(lr)] = slack;
      ++slack;
    }
    if (rr != Rel::kLe) {
      t.at(lr, art) = 1.0;
      t.gcol[static_cast<std::size_t>(art)] = next_art++;
      t.basis[static_cast<std::size_t>(lr)] = art++;
    }
  }

  Solution sol;
  sol.blocks = static_cast<std::uint32_t>(blocks.size());
  double objval = 0.0;
  std::size_t iters_left = max_iters;

  // ---- Phase 1: maximize -(sum of artificials) ----
  if (num_art > 0) {
    // Maximize z = -(sum of artificials). Substituting each artificial
    // row art_r = rhs_r - sum_c a_rc x_c gives reduced costs
    // cost_j = +sum over artificial rows of a_rj and objval = -sum rhs.
    for (const auto [b, r] : row_at) {
      Block& t = blocks[static_cast<std::size_t>(b)];
      if (t.basis[static_cast<std::size_t>(r)] < t.art_begin) continue;
      for (int c = 0; c < t.ncols; ++c) {
        t.cost[static_cast<std::size_t>(c)] += t.get(r, c);
      }
      objval -= t.rhs(r);
    }
    for (Block& t : blocks) {
      for (int c = t.art_begin; c < t.ncols; ++c) {
        t.cost[static_cast<std::size_t>(c)] = 0.0;  // basic artificials
      }
    }

    const Status st = run_simplex(blocks, total_cols, objval, iters_left, sol.pivots);
    if (st == Status::kIterLimit) {
      sol.status = st;
      return sol;
    }
    if (objval < -kTolFeas) {
      sol.status = Status::kInfeasible;
      return sol;
    }
    // Drive remaining basic artificials out where possible; redundant rows
    // keep a zero-valued artificial that is simply barred from re-entering.
    for (Block& t : blocks) {
      for (int r = 0; r < t.m; ++r) {
        if (t.basis[static_cast<std::size_t>(r)] < t.art_begin) continue;
        for (int c = 0; c < t.art_begin; ++c) {
          if (std::abs(t.get(r, c)) > kTolPivot) {
            t.pivot(r, c, objval);
            ++sol.pivots;
            break;
          }
        }
      }
      for (int c = t.art_begin; c < t.ncols; ++c) {
        t.enterable[static_cast<std::size_t>(c)] = false;
      }
    }
  }

  // ---- Phase 2: real objective ----
  objval = 0.0;
  for (Block& t : blocks) {
    std::fill(t.cost.begin(), t.cost.end(), 0.0);
    for (int c = 0; c < t.nstruct(); ++c) {
      t.cost[static_cast<std::size_t>(c)] =
          obj_[static_cast<std::size_t>(t.vars[static_cast<std::size_t>(c)])];
    }
  }
  // Price out the current basis.
  for (const auto [b, r] : row_at) {
    Block& t = blocks[static_cast<std::size_t>(b)];
    const int bc = t.basis[static_cast<std::size_t>(r)];
    const double cb =
        bc < t.nstruct()
            ? obj_[static_cast<std::size_t>(t.vars[static_cast<std::size_t>(bc)])]
            : 0.0;
    if (cb == 0.0) continue;
    for (int c = 0; c < t.ncols; ++c) {
      t.cost[static_cast<std::size_t>(c)] -= cb * t.get(r, c);
    }
    objval += cb * t.rhs(r);
  }
  for (Block& t : blocks) {
    for (const int bc : t.basis) t.cost[static_cast<std::size_t>(bc)] = 0.0;
  }

  const Status st = run_simplex(blocks, total_cols, objval, iters_left, sol.pivots);
  if (st != Status::kOptimal) {
    sol.status = st;
    return sol;
  }

  sol.status = Status::kOptimal;
  sol.objective = objval;
  sol.x.assign(static_cast<std::size_t>(n), 0.0);
  for (Block& t : blocks) {
    for (int r = 0; r < t.m; ++r) {
      const int bc = t.basis[static_cast<std::size_t>(r)];
      if (bc < t.nstruct()) {
        sol.x[static_cast<std::size_t>(t.vars[static_cast<std::size_t>(bc)])] = t.rhs(r);
      }
    }
  }
  // Clamp tiny negatives from rounding.
  for (double& v : sol.x) {
    if (v < 0 && v > -kTolFeas) v = 0;
  }
  return sol;
}

}  // namespace ncfn::lp
