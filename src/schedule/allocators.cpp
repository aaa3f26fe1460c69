#include "schedule/allocators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace cloudqc {
namespace {

/// True when request r can take one more pair under `free_comm`.
bool can_take(const CommRequest& r, const std::vector<int>& free_comm) {
  return free_comm[static_cast<std::size_t>(r.qpu_a)] >= 1 &&
         free_comm[static_cast<std::size_t>(r.qpu_b)] >= 1;
}

void take(const CommRequest& r, std::vector<int>& free_comm) {
  --free_comm[static_cast<std::size_t>(r.qpu_a)];
  --free_comm[static_cast<std::size_t>(r.qpu_b)];
}

/// Indices of `requests` sorted by descending priority (stable, so FIFO
/// order breaks ties — part of the starvation-freedom story). When every
/// priority is a non-negative integer no larger than 4n + 64, which is what
/// the simulator sends (remote-DAG depths are ints), a stable counting sort
/// gives that order in O(n); anything else takes the stable comparison sort.
std::vector<std::size_t> by_priority(const std::vector<CommRequest>& requests) {
  const std::size_t n = requests.size();
  std::vector<std::size_t> idx(n);
  const double bound = 4.0 * static_cast<double>(n) + 64.0;
  double top = 0.0;
  for (const CommRequest& r : requests) {
    // Written so that NaN fails the test too.
    if (!(r.priority >= 0.0 && r.priority <= bound &&
          r.priority == std::floor(r.priority))) {
      std::iota(idx.begin(), idx.end(), 0);
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::size_t a, std::size_t b) {
                         return requests[a].priority > requests[b].priority;
                       });
      return idx;
    }
    top = std::max(top, r.priority);
  }
  // Bucket b holds priority top - b, so buckets run in descending priority;
  // filling them in request order keeps ties in ascending index.
  const auto bucket = [top](double priority) {
    return static_cast<std::size_t>(top - priority);
  };
  std::vector<std::size_t> next(static_cast<std::size_t>(top) + 2, 0);
  for (const CommRequest& r : requests) ++next[bucket(r.priority) + 1];
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  for (std::size_t i = 0; i < n; ++i) {
    idx[next[bucket(requests[i].priority)]++] = i;
  }
  return idx;
}

class CloudQcAllocator final : public CommAllocator {
 public:
  explicit CloudQcAllocator(int max_redundancy)
      : max_redundancy_(max_redundancy) {
    CLOUDQC_CHECK(max_redundancy >= 1);
  }

  std::string name() const override { return "CloudQC"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& /*rng*/) const override {
    std::vector<int> pairs(requests.size(), 0);
    const auto order = by_priority(requests);
    // Pass 1 — effectiveness with starvation freedom: one pair to every
    // schedulable request, most important first.
    for (const std::size_t i : order) {
      if (can_take(requests[i], free_comm)) {
        take(requests[i], free_comm);
        pairs[i] = 1;
      }
    }
    // Pass 2 — redundancy, proportionally fair: hand out the leftover
    // budget one pair at a time to the funded request with the highest
    // priority-per-pair ratio. Critical gates accumulate redundancy fastest
    // (failure tolerance where a stall blocks the deepest cone), while
    // equal-priority gates share leftovers evenly.
    //
    // The candidates sit in a max-heap on (score desc, position in `order`
    // asc): its top is the first request in `order` with the best score.
    // A score of -1 or less (or NaN) never wins a pair; one above -1 stays
    // above it as the request's pair count grows. `free_comm` only
    // shrinks here, so a request that cannot take a pair never can again:
    // it is left out of the heap, or dropped when it reaches the top.
    struct Candidate {
      double score;
      std::size_t pos;  // index into `order`
    };
    const auto below = [](const Candidate& a, const Candidate& b) {
      return a.score < b.score || (a.score == b.score && a.pos > b.pos);
    };
    const auto score = [&](std::size_t i) {
      return (requests[i].priority + 1.0) / pairs[i];
    };
    std::vector<Candidate> heap;
    if (max_redundancy_ > 1) {
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::size_t i = order[pos];
        if (pairs[i] == 1 && can_take(requests[i], free_comm) &&
            score(i) > -1.0) {
          heap.push_back({score(i), pos});
        }
      }
    }
    std::make_heap(heap.begin(), heap.end(), below);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), below);
      const std::size_t pos = heap.back().pos;
      heap.pop_back();
      const std::size_t i = order[pos];
      if (!can_take(requests[i], free_comm)) continue;
      take(requests[i], free_comm);
      ++pairs[i];
      if (pairs[i] < max_redundancy_) {
        heap.push_back({score(i), pos});
        std::push_heap(heap.begin(), heap.end(), below);
      }
    }
    return pairs;
  }

 private:
  int max_redundancy_;
};

class GreedyAllocator final : public CommAllocator {
 public:
  std::string name() const override { return "Greedy"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& /*rng*/) const override {
    std::vector<int> pairs(requests.size(), 0);
    for (const std::size_t i : by_priority(requests)) {
      while (can_take(requests[i], free_comm)) {
        take(requests[i], free_comm);
        ++pairs[i];
      }
    }
    return pairs;
  }
};

class AverageAllocator final : public CommAllocator {
 public:
  std::string name() const override { return "Average"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& /*rng*/) const override {
    std::vector<int> pairs(requests.size(), 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (can_take(requests[i], free_comm)) {
          take(requests[i], free_comm);
          ++pairs[i];
          progress = true;
        }
      }
    }
    return pairs;
  }
};

class RandomAllocator final : public CommAllocator {
 public:
  std::string name() const override { return "Random"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& rng) const override {
    std::vector<int> pairs(requests.size(), 0);
    // Hand out pairs one at a time to a uniformly random request that can
    // still take one — some ops randomly accumulate redundancy while others
    // randomly wait.
    std::vector<std::size_t> takeable;
    while (true) {
      takeable.clear();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (can_take(requests[i], free_comm)) takeable.push_back(i);
      }
      if (takeable.empty()) break;
      const std::size_t i = takeable[rng.below(takeable.size())];
      take(requests[i], free_comm);
      ++pairs[i];
    }
    return pairs;
  }
};

}  // namespace

std::unique_ptr<CommAllocator> make_cloudqc_allocator(int max_redundancy) {
  return std::make_unique<CloudQcAllocator>(max_redundancy);
}
std::unique_ptr<CommAllocator> make_greedy_allocator() {
  return std::make_unique<GreedyAllocator>();
}
std::unique_ptr<CommAllocator> make_average_allocator() {
  return std::make_unique<AverageAllocator>();
}
std::unique_ptr<CommAllocator> make_random_allocator() {
  return std::make_unique<RandomAllocator>();
}

}  // namespace cloudqc
