// Linear programming by dense two-phase primal simplex — the substitute
// for glpk/cplex, which the paper uses to solve (the relaxation of)
// optimization problem (2). Maximization form:
//
//     maximize    c^T x
//     subject to  a_i^T x  {<=, >=, =}  b_i      for each row i
//                 0 <= x_j <= hi_j               (hi may be +infinity)
//
// Finite upper bounds become rows. Pricing is Dantzig (largest reduced
// cost, lowest column on ties) with a Bland fallback after a long
// degenerate streak. A pivot updates the other rows only in the pivot
// row's nonzero columns and the RHS; the rows of (2) are sparse.
//
// Block split. The deployment LP of many sessions that share no data
// center or edge is block-diagonal, and a single dense tableau over it
// costs O(rows x columns) per pivot. solve() first splits the LP into
// its connected components — union-find over the variables each row
// touches — and keeps one small dense tableau per block, its rows and
// columns in their global order. The result is the same as the one
// dense tableau over everything, pivot for pivot and bit for bit:
//   - a pivot in one block changes only that block's rows and reduced
//     costs (every other row holds zeros in the pivot row's columns);
//   - so each block caches its own pricing candidates, and taking the
//     best of them (lowest global column on ties) is the global Dantzig
//     or Bland choice, and the ratio test and its tie-break see only
//     the block's rows, in their global order;
//   - the state the one tableau shares across blocks is shared here too:
//     the degenerate-streak counter and its Bland threshold (2 x all
//     columns), the `max_iters` budget and the objective value, which
//     sums in the same order;
//   - so the status precedence holds as well: phase 1 finishes for every
//     block before phase 2 starts, and an infeasible block makes the
//     whole LP kInfeasible even when another block is unbounded.
// A coupled LP is one block. There is no second path.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace ncfn::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Rel { kLe, kGe, kEq };

enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };

struct Term {
  int var;
  double coeff;
};

struct Solution {
  Status status = Status::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  // Deterministic work counters: tableau pivots (simplex steps plus the
  // pivots that drive leftover artificials out after phase 1), and the
  // independent blocks the LP split into.
  std::uint64_t pivots = 0;
  std::uint32_t blocks = 0;

  [[nodiscard]] bool ok() const { return status == Status::kOptimal; }
};

class Problem {
 public:
  /// Add a variable with bounds [0, hi] and objective coefficient `obj`.
  /// Returns the variable index.
  int add_var(double obj, double hi = kInf);

  /// Replace a variable's objective coefficient.
  void set_objective(int var, double obj) { obj_.at(static_cast<std::size_t>(var)) = obj; }

  /// Tighten a variable's upper bound (lower bound stays 0).
  void set_upper_bound(int var, double hi) { hi_.at(static_cast<std::size_t>(var)) = hi; }

  /// Fix a variable to a value: adds an equality row var == v.
  void fix(int var, double v) { add_constraint({{var, 1.0}}, Rel::kEq, v); }

  /// Add a general linear constraint. Terms may repeat a variable
  /// (coefficients are summed).
  void add_constraint(std::vector<Term> terms, Rel rel, double rhs);

  [[nodiscard]] int num_vars() const { return static_cast<int>(obj_.size()); }
  [[nodiscard]] int num_constraints() const { return static_cast<int>(rows_.size()); }

  /// Solve. `max_iters` bounds the simplex iterations of both phases,
  /// summed over all blocks.
  [[nodiscard]] Solution solve(std::size_t max_iters = 100000) const;

 private:
  struct Row {
    std::vector<Term> terms;
    Rel rel;
    double rhs;
  };

  std::vector<double> obj_;
  std::vector<double> hi_;
  std::vector<Row> rows_;
};

}  // namespace ncfn::lp
