#include "selftest.hpp"

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/workloads.hpp"
#include "cloud/topologies.hpp"
#include "decorators.hpp"
#include "placement/incremental_cost.hpp"
#include "schedule/frontier_router.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool same(const std::optional<cloudqc::Placement>& a,
          const std::optional<cloudqc::Placement>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->qubit_to_qpu == b->qubit_to_qpu &&
                a->qubits_per_qpu == b->qubits_per_qpu &&
                a->comm_cost == b->comm_cost &&
                a->remote_ops == b->remote_ops && a->score == b->score);
}

std::size_t spans_of(const Tracer& t, Layer layer) {
  std::size_t n = 0;
  for (const Tracer::Span& s : t.spans()) n += s.layer == layer ? 1 : 0;
  return n;
}

void check_placer(const cloudqc::QuantumCloud& cloud) {
  const auto inner = cloudqc::make_cloudqc_placer();
  Tracer tracer;
  const TracedPlacer traced(*inner, &tracer);
  // A circuit that fits, then one that exceeds what a nearly full copy of
  // the cloud has left, so both the success and the failure path are
  // forwarded.
  cloudqc::QuantumCloud full = cloud;
  full.try_reserve(std::vector<int>(
      static_cast<std::size_t>(cloud.num_qpus()),
      cloud.config().computing_qubits_per_qpu - 5));
  for (const auto& [name, target] :
       {std::pair<const char*, const cloudqc::QuantumCloud*>{"ising_n34",
                                                             &cloud},
        {"ghz_n127", &full}}) {
    const cloudqc::Circuit c = cloudqc::make_workload(name);
    cloudqc::Rng r1(7), r2(7);
    const auto direct = inner->place(c, *target, r1);
    const auto wrapped = traced.place(c, *target, r2);
    expect(same(direct, wrapped) && r1() == r2(),
           std::string("place forwards ") + name);

    const cloudqc::PlacementContext ctx =
        cloudqc::PlacementContext::for_circuit(c);
    cloudqc::Rng r3(9), r4(9);
    const auto direct_ctx = inner->place_with_context(c, *target, r3, ctx);
    const auto wrapped_ctx = traced.place_with_context(c, *target, r4, ctx);
    expect(same(direct_ctx, wrapped_ctx) && r3() == r4(),
           std::string("place_with_context forwards ") + name);
  }
  expect(traced.calls == 4 && traced.ctx_calls == 2 && traced.fails == 2,
         "placer counts calls, context calls and failures");
  expect(spans_of(tracer, Layer::kPlacement) == 4,
         "one placement span per placer call");
}

void check_allocator(const cloudqc::QuantumCloud& cloud) {
  const auto inner = cloudqc::make_random_allocator();
  Tracer tracer;
  const TracedAllocator traced(*inner, &tracer);
  const std::vector<cloudqc::CommRequest> reqs = {
      {0, 3.0, 0, 1}, {1, 2.0, 1, 2}, {2, 5.0, 0, 2}};
  const std::vector<int> free_comm(static_cast<std::size_t>(cloud.num_qpus()),
                                   3);
  cloudqc::Rng r1(5), r2(5);
  const auto direct = inner->allocate(reqs, free_comm, r1);
  const auto wrapped = traced.allocate(reqs, free_comm, r2);
  expect(direct == wrapped && r1() == r2(), "allocate forwards");
  expect(traced.calls == 1 && traced.requests == 3 &&
             spans_of(tracer, Layer::kAlloc) == 1,
         "allocator counts calls, requests and spans");
}

void check_router() {
  cloudqc::CloudSpec spec;
  spec.family = cloudqc::TopologyFamily::kFatTree;
  spec.num_qpus = 15;
  const cloudqc::QuantumCloud cloud = cloudqc::build_cloud(spec);
  const auto inner = cloudqc::make_frontier_router();
  Tracer tracer;
  const TracedRouter traced(*inner, &tracer);
  std::vector<int> free_comm(15, 2);
  const auto open_direct = inner->route(cloud, 7, 14, free_comm);
  const auto open_wrapped = traced.route(cloud, 7, 14, free_comm);
  expect(open_direct && open_wrapped &&
             open_direct->nodes == open_wrapped->nodes,
         "route forwards an open path");
  // Saturate every interior node: leaves 7 and 14 are then cut apart.
  for (int q = 0; q < 7; ++q) free_comm[static_cast<std::size_t>(q)] = 0;
  expect(!inner->route(cloud, 7, 14, free_comm) &&
             !traced.route(cloud, 7, 14, free_comm),
         "route forwards a blocked path");
  expect(traced.calls == 2 && traced.blocked == 1 &&
             tracer.leaf_calls(Layer::kRoute) == 2,
         "router counts calls, blocked calls and timed calls");
}

void check_null_tracer(const cloudqc::QuantumCloud& cloud) {
  const auto inner = cloudqc::make_cloudqc_placer();
  const TracedPlacer counting(*inner, nullptr);
  cloudqc::Rng rng(3);
  counting.place(cloudqc::make_workload("ising_n34"), cloud, rng);
  expect(counting.calls == 1, "a null tracer still counts calls");
}

}  // namespace

bool run_selftest() {
  cloudqc::Rng rng(11);
  const cloudqc::QuantumCloud cloud(cloudqc::CloudConfig{}, rng);
  check_placer(cloud);
  check_allocator(cloud);
  check_router();
  check_null_tracer(cloud);
  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0;
}

}  // namespace perfbench
