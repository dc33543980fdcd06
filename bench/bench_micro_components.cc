// Microbenchmarks (google-benchmark) for the hot paths of the simulator and
// the substrates: routing, cost model, counters, sampling, generation and
// partitioning throughput.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/registry.h"
#include "core/utility.h"
#include "graph/generator.h"
#include "net/topology.h"
#include "partition/partitioner.h"
#include "placement/placement.h"

namespace dynasore {
namespace {

const net::Topology& PaperTopo() {
  static const net::Topology topo =
      net::Topology::MakeTree(net::TreeConfig{5, 5, 10});
  return topo;
}

void BM_TopologyDistance(benchmark::State& state) {
  const auto& topo = PaperTopo();
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto broker = static_cast<BrokerId>(i % topo.num_brokers());
    const auto server = static_cast<ServerId>((i * 37) % topo.num_servers());
    benchmark::DoNotOptimize(topo.Distance(broker, server));
    ++i;
  }
}
BENCHMARK(BM_TopologyDistance);

void BM_PathBrokerServer(benchmark::State& state) {
  const auto& topo = PaperTopo();
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto broker = static_cast<BrokerId>(i % topo.num_brokers());
    const auto server = static_cast<ServerId>((i * 37) % topo.num_servers());
    benchmark::DoNotOptimize(topo.PathBrokerServer(broker, server));
    ++i;
  }
}
BENCHMARK(BM_PathBrokerServer);

void BM_ClosestReplicaRouting(benchmark::State& state) {
  const auto& topo = PaperTopo();
  const auto replicas = static_cast<std::size_t>(state.range(0));
  place::PlacementResult placement;
  placement.replicas.resize(1);
  for (std::size_t i = 0; i < replicas; ++i) {
    placement.replicas[0].push_back(static_cast<ServerId>(i * 53 % 225));
  }
  std::sort(placement.replicas[0].begin(), placement.replicas[0].end());
  placement.replicas[0].erase(std::unique(placement.replicas[0].begin(),
                                          placement.replicas[0].end()),
                              placement.replicas[0].end());
  placement.master = {placement.replicas[0].front()};
  const core::ViewRegistry registry(placement, topo);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.ClosestReplica(
        static_cast<BrokerId>(i++ % topo.num_brokers()), 0, topo));
  }
}
BENCHMARK(BM_ClosestReplicaRouting)->Arg(1)->Arg(3)->Arg(8);

// A view read's statistics update: one origin of a tree server's nine, with
// a rotation every 1024 reads.
void BM_ReplicaStatsRecordRead(benchmark::State& state) {
  store::ReplicaStats stats(24);
  std::uint32_t i = 0;
  for (auto _ : state) {
    stats.RecordRead(static_cast<std::uint16_t>(i % 9));
    if (++i % 1024 == 0) stats.Rotate();
    benchmark::DoNotOptimize(stats.TotalReads());
  }
}
BENCHMARK(BM_ReplicaStatsRecordRead);

void BM_EstimateProfit(benchmark::State& state) {
  const auto& topo = PaperTopo();
  store::ReplicaStats stats(24);
  stats.RecordRead(0, 10);
  stats.RecordRead(3, 4);
  stats.RecordRead(6, 7);
  stats.RecordWrite(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::EstimateProfit(topo, false, stats, 0, 0, 100, 0));
  }
}
BENCHMARK(BM_EstimateProfit);

void BM_AliasTableSample(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<double> weights(100000);
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  const common::AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_GenerateGraph(benchmark::State& state) {
  graph::GraphGenConfig config;
  config.num_users = static_cast<std::uint32_t>(state.range(0));
  config.links_per_user = 12;
  for (auto _ : state) {
    config.seed += 1;
    benchmark::DoNotOptimize(GenerateCommunityGraph(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateGraph)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_PartitionGraph(benchmark::State& state) {
  graph::GraphGenConfig gen;
  gen.num_users = static_cast<std::uint32_t>(state.range(0));
  gen.links_per_user = 12;
  gen.seed = 5;
  const auto g = GenerateCommunityGraph(gen);
  part::PartitionConfig config;
  config.num_parts = 225;
  for (auto _ : state) {
    config.seed += 1;
    benchmark::DoNotOptimize(part::PartitionGraph(g, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionGraph)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dynasore

BENCHMARK_MAIN();
