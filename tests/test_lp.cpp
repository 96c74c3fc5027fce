// Tests for the dense two-phase simplex solver: textbook LPs, edge cases
// (infeasible / unbounded / degenerate), bounds, fixing, equality rows,
// and the split into independent blocks.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "app/scenarios.hpp"
#include "ctrl/problem.hpp"
#include "lp/simplex.hpp"

using namespace ncfn::lp;

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  -> x=2, y=6, obj=36.
  Problem p;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 4.0);
  p.add_constraint({{y, 2.0}}, Rel::kLe, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Rel::kLe, 18.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 6.0, 1e-7);
}

TEST(Simplex, GreaterEqualConstraints) {
  // max -x - y s.t. x + y >= 3, x >= 1  -> x in [1,?], optimum x+y=3.
  Problem p;
  const int x = p.add_var(-1.0);
  const int y = p.add_var(-1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, 3.0);
  p.add_constraint({{x, 1.0}}, Rel::kGe, 1.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
  EXPECT_NEAR(s.x[0] + s.x[1], 3.0, 1e-7);
  EXPECT_GE(s.x[0], 1.0 - 1e-7);
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y s.t. x + y = 5, x - y = 1 -> x=3, y=2, obj=7.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 5.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kEq, 1.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 3.0, 1e-7);
  EXPECT_NEAR(s.x[1], 2.0, 1e-7);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p;
  const int x = p.add_var(1.0);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  p.add_constraint({{x, 1.0}}, Rel::kGe, 2.0);
  EXPECT_EQ(p.solve().status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(0.0);
  p.add_constraint({{y, 1.0}}, Rel::kLe, 5.0);
  (void)x;
  EXPECT_EQ(p.solve().status, Status::kUnbounded);
}

TEST(Simplex, UpperBoundsRespected) {
  Problem p;
  const int x = p.add_var(1.0, /*hi=*/2.5);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 100.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.5, 1e-7);
}

TEST(Simplex, FixPinsVariable) {
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 10.0);
  p.fix(x, 3.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 3.0, 1e-7);
  EXPECT_NEAR(s.x[1], 7.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max -x s.t. -x <= -2  (i.e. x >= 2) -> x = 2.
  Problem p;
  const int x = p.add_var(-1.0);
  p.add_constraint({{x, -1.0}}, Rel::kLe, -2.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
}

TEST(Simplex, RepeatedTermsAreSummed) {
  // x + x <= 4 means 2x <= 4.
  Problem p;
  const int x = p.add_var(1.0);
  p.add_constraint({{x, 1.0}, {x, 1.0}}, Rel::kLe, 4.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate vertex: several constraints meet at the optimum.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  p.add_constraint({{y, 1.0}}, Rel::kLe, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 2.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kLe, 0.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 4 listed twice: phase 1 leaves a redundant artificial basic.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(0.5);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 4.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 4.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 4.0, 1e-7);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, MaxFlowAsLp) {
  // Max-flow on the classic butterfly expressed as an LP must give the
  // min cut. s->a, s->b (cap 1); a->t1, b->t2 (cap 1); a->c, b->c (cap 1);
  // c->d (cap 1); d->t1, d->t2 (cap 1). Single-commodity s->t1:
  // paths: s-a-t1, s-a-c-d-t1, s-b-c-d-t1. Max flow = 2.
  Problem p;
  const int p1 = p.add_var(1.0);
  const int p2 = p.add_var(1.0);
  const int p3 = p.add_var(1.0);
  p.add_constraint({{p1, 1.0}, {p2, 1.0}}, Rel::kLe, 1.0);  // s->a
  p.add_constraint({{p3, 1.0}}, Rel::kLe, 1.0);             // s->b
  p.add_constraint({{p1, 1.0}}, Rel::kLe, 1.0);             // a->t1
  p.add_constraint({{p2, 1.0}, {p3, 1.0}}, Rel::kLe, 1.0);  // c->d
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, RandomizedFeasibilitySanity) {
  // Random LPs with known feasible point x*: optimal objective must be
  // >= c^T x*; and every constraint must hold at the reported solution.
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::uniform_real_distribution<double> pos(0.0, 3.0);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 6, m = 8;
    std::vector<double> xstar(n);
    for (auto& v : xstar) v = pos(rng);
    Problem p;
    std::vector<double> c(n);
    for (int j = 0; j < n; ++j) {
      c[j] = coeff(rng);
      p.add_var(c[j], /*hi=*/10.0);
    }
    std::vector<std::vector<double>> rows(m, std::vector<double>(n));
    std::vector<double> rhs(m);
    for (int i = 0; i < m; ++i) {
      std::vector<Term> terms;
      double lhs_at_star = 0;
      for (int j = 0; j < n; ++j) {
        rows[i][static_cast<std::size_t>(j)] = coeff(rng);
        terms.push_back({j, rows[i][static_cast<std::size_t>(j)]});
        lhs_at_star += rows[i][static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
      }
      rhs[i] = lhs_at_star + pos(rng);  // slack at x*: feasible
      p.add_constraint(std::move(terms), Rel::kLe, rhs[i]);
    }
    const Solution s = p.solve();
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    double obj_star = 0;
    for (int j = 0; j < n; ++j) obj_star += c[static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
    EXPECT_GE(s.objective, obj_star - 1e-6);
    for (int i = 0; i < m; ++i) {
      double lhs = 0;
      for (int j = 0; j < n; ++j) lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] * s.x[static_cast<std::size_t>(j)];
      EXPECT_LE(lhs, rhs[static_cast<std::size_t>(i)] + 1e-6);
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(s.x[static_cast<std::size_t>(j)], -1e-9);
      EXPECT_LE(s.x[static_cast<std::size_t>(j)], 10.0 + 1e-6);
    }
  }
}

// ---- Block split ----

namespace {

struct RowSpec {
  std::vector<Term> terms;
  Rel rel;
  double rhs;
};

/// An LP kept as data, so the same rows can be solved as they are and
/// glued into one block.
struct LpSpec {
  std::vector<double> obj, hi;
  std::vector<RowSpec> rows;
  std::uint32_t blocks = 0;  // independent blocks when not glued

  /// `glued` adds the row sum_j x_j <= 1e12, which touches every
  /// variable and never binds on these bounded LPs.
  [[nodiscard]] Problem build(bool glued) const {
    Problem p;
    for (std::size_t j = 0; j < obj.size(); ++j) p.add_var(obj[j], hi[j]);
    for (const RowSpec& r : rows) p.add_constraint(r.terms, r.rel, r.rhs);
    if (glued) {
      std::vector<Term> all;
      for (int j = 0; j < p.num_vars(); ++j) all.push_back({j, 1.0});
      p.add_constraint(std::move(all), Rel::kLe, 1e12);
    }
    return p;
  }
};

/// 1-8 independent blocks of 1-5 variables each. Every block has a
/// capacity row over all its variables, so it is bounded; its other rows
/// mix <=, >= and ==, many of them tight (degenerate) at an integer point
/// x*, some with finite variable bounds and some with random right-hand
/// sides that may make the block infeasible. Isolated variables join no
/// row. The rows of all blocks are shuffled together.
LpSpec random_block_lp(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 99), small(-3, 3);
  LpSpec lp;
  const int nblocks = 1 + coin(rng) % 8;
  for (int b = 0; b < nblocks; ++b) {
    const int first = static_cast<int>(lp.obj.size());
    const int nv = 1 + coin(rng) % 5;
    std::vector<double> xstar;
    for (int i = 0; i < nv; ++i) {
      lp.obj.push_back(small(rng));
      lp.hi.push_back(coin(rng) < 30 ? 2.0 + coin(rng) % 3 : kInf);
      xstar.push_back(coin(rng) % 3);
    }
    const bool feasible = coin(rng) < 75;
    const int nrows = coin(rng) % 5;
    for (int r = 0; r < nrows; ++r) {
      RowSpec row{{}, static_cast<Rel>(coin(rng) % 3), 0.0};
      double at_star = 0;
      for (int i = 0; i < nv; ++i) {
        if (coin(rng) < 40 && !row.terms.empty()) continue;
        const double a = small(rng);
        row.terms.push_back({first + i, a});
        at_star += a * xstar[static_cast<std::size_t>(i)];
      }
      const double gap = coin(rng) < 50 ? 0.0 : 1.0 + coin(rng) % 3;
      row.rhs = !feasible        ? small(rng)
                : row.rel == Rel::kLe ? at_star + gap
                : row.rel == Rel::kGe ? at_star - gap
                                      : at_star;
      lp.rows.push_back(std::move(row));
    }
    RowSpec cap{{}, Rel::kLe, 2.0 * nv + coin(rng) % 3};
    for (int i = 0; i < nv; ++i) cap.terms.push_back({first + i, 1.0});
    lp.rows.push_back(std::move(cap));
    ++lp.blocks;
  }
  for (int k = coin(rng) % 3; k > 0; --k) {  // isolated: never unbounded
    lp.obj.push_back(coin(rng) < 50 ? -1.0 : 2.0);
    lp.hi.push_back(lp.obj.back() > 0 ? 4.0 : kInf);
    ++lp.blocks;
  }
  std::shuffle(lp.rows.begin(), lp.rows.end(), rng);
  return lp;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

ncfn::ctrl::DeploymentProblem deployment(const ncfn::app::scenarios::Butterflies& b) {
  ncfn::ctrl::DeploymentProblem prob;
  prob.topo = &b.topo;
  prob.sessions = b.sessions;
  prob.alpha = 0.0;
  return prob;
}

}  // namespace

TEST(BlockSplit, MatchesTheSameLpGluedIntoOneBlock) {
  // Oracle: gluing the blocks with a row that never binds makes one
  // block, solved as one dense tableau. Splitting must not change a bit.
  std::mt19937 rng(2017);
  int optimal = 0, infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const LpSpec lp = random_block_lp(rng);
    const Solution split = lp.build(false).solve();
    const Solution glued = lp.build(true).solve();
    ASSERT_EQ(split.blocks, lp.blocks) << "trial " << trial;
    ASSERT_EQ(glued.blocks, 1u) << "trial " << trial;
    ASSERT_EQ(split.status, glued.status) << "trial " << trial;
    EXPECT_EQ(split.pivots, glued.pivots) << "trial " << trial;
    if (split.ok()) {
      ++optimal;
      EXPECT_TRUE(same_bits(split.x, glued.x)) << "trial " << trial;
      EXPECT_TRUE(same_bits({split.objective}, {glued.objective}))
          << "trial " << trial;
    } else {
      infeasible += split.status == Status::kInfeasible;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(optimal, 100);
  EXPECT_GT(infeasible, 50);
}

TEST(BlockSplit, InfeasibleBlockOutranksUnboundedBlock) {
  // As in one tableau: phase 1 finds the infeasible block before phase 2
  // can find the unbounded one, whichever block comes first.
  const auto add_unbounded = [](Problem& p) {
    const int u = p.add_var(1.0);
    p.add_constraint({{u, 1.0}}, Rel::kGe, 1.0);
  };
  const auto add_infeasible = [](Problem& p) {
    const int y = p.add_var(1.0);
    p.add_constraint({{y, 1.0}}, Rel::kLe, 1.0);
    p.add_constraint({{y, 1.0}}, Rel::kGe, 2.0);
  };
  Problem unbounded;
  add_unbounded(unbounded);
  EXPECT_EQ(unbounded.solve().status, Status::kUnbounded);
  for (const bool infeasible_first : {true, false}) {
    Problem p;
    if (infeasible_first) add_infeasible(p);
    add_unbounded(p);
    if (!infeasible_first) add_infeasible(p);
    const Solution s = p.solve();
    EXPECT_EQ(s.blocks, 2u);
    EXPECT_EQ(s.status, Status::kInfeasible) << infeasible_first;
  }
}

TEST(BlockSplit, RowWithNoTerms) {
  // A row with no terms is a block of its own: 0 <= 5 and 0 == 0 hold
  // and leave the rest alone, 0 >= 1 and 0 <= -1 cannot hold.
  for (const auto& [rel, rhs, holds] :
       {std::tuple{Rel::kLe, 5.0, true}, std::tuple{Rel::kEq, 0.0, true},
        std::tuple{Rel::kGe, 1.0, false}, std::tuple{Rel::kLe, -1.0, false}}) {
    Problem p;
    const int x = p.add_var(1.0, /*hi=*/3.0);
    p.add_constraint({}, rel, rhs);
    const Solution s = p.solve();
    EXPECT_EQ(s.blocks, 2u);
    if (holds) {
      ASSERT_TRUE(s.ok()) << rhs;
      EXPECT_EQ(s.x[static_cast<std::size_t>(x)], 3.0);
    } else {
      EXPECT_EQ(s.status, Status::kInfeasible) << rhs;
    }
  }
}

TEST(BlockSplit, IterationBudgetIsSharedAcrossBlocks) {
  // Two copies of the textbook LP. The smallest budget that solves one
  // copy runs out while the second is still pivoting.
  const auto add_textbook = [](Problem& p) {
    const int x = p.add_var(3.0);
    const int y = p.add_var(5.0);
    p.add_constraint({{x, 1.0}}, Rel::kLe, 4.0);
    p.add_constraint({{y, 2.0}}, Rel::kLe, 12.0);
    p.add_constraint({{x, 3.0}, {y, 2.0}}, Rel::kLe, 18.0);
  };
  Problem one;
  add_textbook(one);
  std::size_t need = 1;
  while (!one.solve(need).ok()) ++need;
  EXPECT_EQ(one.solve(need - 1).status, Status::kIterLimit);
  Problem two;
  add_textbook(two);
  add_textbook(two);
  EXPECT_EQ(two.solve(need).status, Status::kIterLimit);
  const Solution s = two.solve(2 * need);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.blocks, 2u);
  EXPECT_EQ(s.pivots, 2 * one.solve().pivots);
}

TEST(BlockSplit, FiftyButterflyRelaxationWorkCounters) {
  // The relaxation of (2) over 50 disjoint butterflies splits into one
  // block per copy and does exactly the work of 50 lone butterflies, each
  // block solved alone. Pinned: a change here is a change in solver work.
  const auto lone = ncfn::app::scenarios::butterflies(1);
  const auto fifty = ncfn::app::scenarios::butterflies(50);
  const Solution s1 = ncfn::ctrl::relaxation_lp(deployment(lone)).solve();
  const Solution s50 = ncfn::ctrl::relaxation_lp(deployment(fifty)).solve();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s50.ok());
  EXPECT_EQ(s1.blocks, 1u);
  EXPECT_EQ(s1.pivots, 28u);
  EXPECT_EQ(s50.blocks, 50u);
  EXPECT_EQ(s50.pivots, 50 * s1.pivots);
  EXPECT_EQ(s50.x.size(), 50 * s1.x.size());
}
