#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "schedule/allocators.hpp"

namespace cloudqc {
namespace {

CommRequest req(double priority, QpuId a, QpuId b) {
  CommRequest r;
  r.priority = priority;
  r.qpu_a = a;
  r.qpu_b = b;
  return r;
}

/// Verify the fundamental budget invariant for any allocator result.
void expect_within_budget(const std::vector<CommRequest>& requests,
                          const std::vector<int>& pairs,
                          const std::vector<int>& budget) {
  std::vector<int> spend(budget.size(), 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_GE(pairs[i], 0);
    spend[static_cast<std::size_t>(requests[i].qpu_a)] += pairs[i];
    spend[static_cast<std::size_t>(requests[i].qpu_b)] += pairs[i];
  }
  for (std::size_t q = 0; q < budget.size(); ++q) {
    EXPECT_LE(spend[q], budget[q]) << "QPU " << q;
  }
}

TEST(CloudQcAllocator, EveryoneGetsOneBeforeRedundancy) {
  const auto alloc = make_cloudqc_allocator();
  Rng rng(1);
  // Two ops sharing QPU 0, which has 3 comm qubits.
  const std::vector<CommRequest> rs{req(5, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {3, 5, 5}, rng);
  EXPECT_GE(pairs[0], 1);
  EXPECT_GE(pairs[1], 1);  // low priority still served — starvation freedom
  expect_within_budget(rs, pairs, {3, 5, 5});
}

TEST(CloudQcAllocator, RedundancyGoesToHighestPriority) {
  const auto alloc = make_cloudqc_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {4, 5, 5}, rng);
  // QPU 0 budget 4: 1+1 in pass one, remaining 2 → priority-9 op.
  EXPECT_EQ(pairs[0], 3);
  EXPECT_EQ(pairs[1], 1);
}

TEST(CloudQcAllocator, ZeroWhenNoBudget) {
  const auto alloc = make_cloudqc_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1)};
  const auto pairs = alloc->allocate(rs, {0, 5}, rng);
  EXPECT_EQ(pairs[0], 0);
}

TEST(GreedyAllocator, MaximisesTopPriority) {
  const auto alloc = make_greedy_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(5, 0, 2)};
  const auto pairs = alloc->allocate(rs, {5, 5, 5}, rng);
  EXPECT_EQ(pairs[0], 5);  // all of QPU 0's budget
  EXPECT_EQ(pairs[1], 0);  // starved
}

TEST(GreedyAllocator, SecondOpServedWhenDisjoint) {
  const auto alloc = make_greedy_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(5, 2, 3)};
  const auto pairs = alloc->allocate(rs, {2, 5, 4, 4}, rng);
  EXPECT_EQ(pairs[0], 2);
  EXPECT_EQ(pairs[1], 4);
}

TEST(AverageAllocator, EvenSplit) {
  const auto alloc = make_average_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {6, 6, 6}, rng);
  EXPECT_EQ(pairs[0], 3);
  EXPECT_EQ(pairs[1], 3);
}

TEST(RandomAllocator, ExhaustsBudgetSomehow) {
  const auto alloc = make_random_allocator();
  Rng rng(5);
  const std::vector<CommRequest> rs{req(1, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {4, 9, 9}, rng);
  EXPECT_EQ(pairs[0] + pairs[1], 4);  // QPU 0 is the bottleneck
  expect_within_budget(rs, pairs, {4, 9, 9});
}

TEST(Allocators, EmptyRequestListIsFine) {
  Rng rng(1);
  for (const auto& alloc :
       {make_cloudqc_allocator(), make_greedy_allocator(),
        make_average_allocator(), make_random_allocator()}) {
    EXPECT_TRUE(alloc->allocate({}, {3, 3}, rng).empty()) << alloc->name();
  }
}

TEST(Allocators, Names) {
  EXPECT_EQ(make_cloudqc_allocator()->name(), "CloudQC");
  EXPECT_EQ(make_greedy_allocator()->name(), "Greedy");
  EXPECT_EQ(make_average_allocator()->name(), "Average");
  EXPECT_EQ(make_random_allocator()->name(), "Random");
}

// Property sweep: all four allocators respect per-QPU budgets and make
// progress (at least one op funded when budget exists) across random
// request patterns.
class AllocatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorProperty, BudgetAndProgress) {
  const int variant = GetParam();
  const std::unique_ptr<CommAllocator> alloc =
      variant == 0   ? make_cloudqc_allocator()
      : variant == 1 ? make_greedy_allocator()
      : variant == 2 ? make_average_allocator()
                     : make_random_allocator();
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int qpus = 4 + static_cast<int>(rng.below(4));
    std::vector<int> budget(static_cast<std::size_t>(qpus));
    for (auto& b : budget) b = static_cast<int>(rng.below(6));
    std::vector<CommRequest> rs;
    const int n = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      const auto a = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(qpus)));
      auto b = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(qpus)));
      if (b == a) b = (b + 1) % qpus;
      rs.push_back(req(static_cast<double>(rng.below(10)), a, b));
    }
    const auto pairs = alloc->allocate(rs, budget, rng);
    ASSERT_EQ(pairs.size(), rs.size());
    expect_within_budget(rs, pairs, budget);
    // Progress: if any request could take a pair, at least one op is funded.
    bool any_possible = false;
    for (const auto& r : rs) {
      if (budget[static_cast<std::size_t>(r.qpu_a)] >= 1 &&
          budget[static_cast<std::size_t>(r.qpu_b)] >= 1) {
        any_possible = true;
      }
    }
    if (any_possible) {
      int total = 0;
      for (int p : pairs) total += p;
      EXPECT_GT(total, 0) << alloc->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFour, AllocatorProperty,
                         ::testing::Values(0, 1, 2, 3));

// Differential check of CloudQC and Greedy against their reference
// implementations: a stable comparison sort for the priority order and a
// full scan per leftover pair in CloudQC's redundancy pass. The library
// replaces both (counting sort for small integer priorities, a heap for
// the redundancy pass) and must hand out exactly the same grants.
namespace reference {

bool can_take(const CommRequest& r, const std::vector<int>& free_comm) {
  return free_comm[static_cast<std::size_t>(r.qpu_a)] >= 1 &&
         free_comm[static_cast<std::size_t>(r.qpu_b)] >= 1;
}

void take(const CommRequest& r, std::vector<int>& free_comm) {
  --free_comm[static_cast<std::size_t>(r.qpu_a)];
  --free_comm[static_cast<std::size_t>(r.qpu_b)];
}

std::vector<std::size_t> by_priority(const std::vector<CommRequest>& requests) {
  std::vector<std::size_t> idx(requests.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].priority > requests[b].priority;
  });
  return idx;
}

std::vector<int> cloudqc(const std::vector<CommRequest>& requests,
                         std::vector<int> free_comm) {
  std::vector<int> pairs(requests.size(), 0);
  const auto order = by_priority(requests);
  for (const std::size_t i : order) {
    if (can_take(requests[i], free_comm)) {
      take(requests[i], free_comm);
      pairs[i] = 1;
    }
  }
  while (true) {
    double best_score = -1.0;
    std::size_t best = requests.size();
    for (const std::size_t i : order) {
      if (pairs[i] == 0) continue;
      if (!can_take(requests[i], free_comm)) continue;
      const double score = (requests[i].priority + 1.0) / pairs[i];
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == requests.size()) break;
    take(requests[best], free_comm);
    ++pairs[best];
  }
  return pairs;
}

std::vector<int> greedy(const std::vector<CommRequest>& requests,
                        std::vector<int> free_comm) {
  std::vector<int> pairs(requests.size(), 0);
  for (const std::size_t i : by_priority(requests)) {
    while (can_take(requests[i], free_comm)) {
      take(requests[i], free_comm);
      ++pairs[i];
    }
  }
  return pairs;
}

/// A random priority from one of the families the differential covers:
/// small integers (many ties), integers beyond the counting-sort bound,
/// fractions, negatives (including (-2, -1], where the redundancy score
/// grows with the pair count) and very large magnitudes.
double priority(int family, std::size_t n, Rng& rng) {
  switch (family) {
    case 0:
      return static_cast<double>(rng.below(4));
    case 1:
      return static_cast<double>(rng.below(static_cast<std::uint64_t>(n) + 40));
    case 2:
      return static_cast<double>(4 * n + 60 + rng.below(10));
    case 3:
      return rng.uniform(0.0, 8.0);
    case 4:
      return static_cast<double>(rng.range(-3, 3)) * 0.5;
    default: {
      const double big[] = {1e300, -1e300, 1e18, -1e18, 0.0, -0.0, 2.5};
      return big[rng.below(7)];
    }
  }
}

}  // namespace reference

TEST(AllocatorDifferential, CloudQcAndGreedyMatchReference) {
  const std::unique_ptr<CommAllocator> cloudqc = make_cloudqc_allocator();
  const std::unique_ptr<CommAllocator> greedy = make_greedy_allocator();
  Rng rng(0xD1FF);
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int qpus = 2 + static_cast<int>(rng.below(9));
    std::vector<int> budget(static_cast<std::size_t>(qpus));
    const bool all_zero = trial % 20 == 0;
    for (auto& b : budget) {
      b = all_zero || rng.chance(0.2) ? 0 : static_cast<int>(rng.below(9));
    }
    const auto n = static_cast<std::size_t>(rng.below(60));
    // Mostly one family per trial; every eighth trial mixes them.
    const int family = static_cast<int>(rng.below(6));
    const bool mixed = trial % 8 == 7;
    std::vector<CommRequest> rs;
    for (std::size_t i = 0; i < n; ++i) {
      const auto a =
          static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(qpus)));
      auto b = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(qpus)));
      if (b == a) b = (b + 1) % qpus;
      const int f = mixed ? static_cast<int>(rng.below(6)) : family;
      rs.push_back(req(reference::priority(f, n, rng), a, b));
    }
    EXPECT_EQ(cloudqc->allocate(rs, budget, rng),
              reference::cloudqc(rs, budget));
    EXPECT_EQ(greedy->allocate(rs, budget, rng),
              reference::greedy(rs, budget));
  }
}

}  // namespace
}  // namespace cloudqc
