// Golden values for the accelerator model: every candidate list that
// warmGenerateCache() produces, for both the Cayman model and the QsCores
// restricted model, hashed per workload, plus each model's exact estimate,
// candidate and scheduleBlock call counts.
//
// The guided-vs-reference differential cannot see a change to the shared
// scheduler or to estimate() — both engines run them — so this suite pins
// their output directly. The hash covers each config's region label, loop
// decisions, interface assignment in program order, the bit patterns of
// cycles / cpuCycles / areaUm2, and the five Table II counts. A deliberate
// model change must re-record the table below and say why.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <string_view>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace cayman::accel {
namespace {

/// FNV-1a over the hashed fields; strings are length-prefixed.
class Fnv {
 public:
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xff);
  }
  void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return h_; }

 private:
  void byte(uint64_t b) { h_ = (h_ ^ b) * 1099511628211ull; }

  uint64_t h_ = 1469598103934665603ull;
};

void hashConfig(Fnv& h, const AcceleratorConfig& config) {
  h.str(config.region->label());
  h.u64(config.loops.size());
  for (const LoopConfig& lc : config.loops) {
    h.str(lc.loop->header()->name());
    h.u64(lc.unroll);
    h.u64(lc.pipelined ? 1 : 0);
  }
  // Interfaces in program order, tagged with the access's position so a
  // moved assignment changes the hash.
  h.u64(config.ifaces.size());
  uint64_t position = 0;
  for (const ir::BasicBlock* block : config.region->blocks()) {
    for (const auto& inst : block->instructions()) {
      ++position;
      auto it = config.ifaces.find(inst.get());
      if (it == config.ifaces.end()) continue;
      const hls::AccessIface& iface = it->second;
      h.u64(position);
      h.u64(static_cast<uint64_t>(iface.kind));
      h.u64(iface.partitions);
      h.str(iface.array != nullptr ? iface.array->name() : "");
      h.u64(iface.footprintBytes);
      h.u64(iface.promoted ? 1 : 0);
    }
  }
  h.f64(config.cycles);
  h.f64(config.cpuCycles);
  h.f64(config.areaUm2);
  h.u64(config.numSeqBlocks);
  h.u64(config.numPipelinedRegions);
  h.u64(config.numCoupled);
  h.u64(config.numDecoupled);
  h.u64(config.numScratchpad);
}

struct ModelFacts {
  uint64_t hash = 0;
  uint64_t estimateCalls = 0;
  uint64_t candidates = 0;
  uint64_t schedBlockCalls = 0;
};

bool operator==(const ModelFacts& a, const ModelFacts& b) {
  return a.hash == b.hash && a.estimateCalls == b.estimateCalls &&
         a.candidates == b.candidates &&
         a.schedBlockCalls == b.schedBlockCalls;
}

std::ostream& operator<<(std::ostream& os, const ModelFacts& f) {
  return os << "{0x" << std::hex << f.hash << std::dec << "ull, "
            << f.estimateCalls << ", " << f.candidates << ", "
            << f.schedBlockCalls << "}";
}

/// Warms the model's generate cache, then hashes every region's list in
/// wPST walk order. The counters are read right after the warm-up, so they
/// are the cold generation's exact call counts.
ModelFacts factsOf(const AcceleratorModel& model) {
  model.warmGenerateCache();
  ModelFacts facts;
  facts.estimateCalls = model.estimateCalls();
  facts.candidates = model.candidatesTotal();
  facts.schedBlockCalls = model.scheduleBlockCalls();
  Fnv h;
  model.wpst().root()->walk([&](const analysis::Region& region) {
    const std::vector<AcceleratorConfig>& configs = model.generate(&region);
    h.u64(configs.size());
    for (const AcceleratorConfig& config : configs) hashConfig(h, config);
  });
  facts.hash = h.value();
  return facts;
}

struct Golden {
  const char* workload;
  ModelFacts cayman;
  ModelFacts qscores;
};

// Recorded before the estimation hot path was rewritten (dense scheduling,
// one-pass estimate()); the rewrite must reproduce every value exactly.
constexpr Golden kGolden[] = {
    {"3mm",
     {0x1287020a1a170601ull, 82, 73, 82},
     {0xc6ba2793c0802529ull, 46, 46, 37}},
    {"atax",
     {0x6a6500aabcc4b4d0ull, 39, 35, 44},
     {0x1064046b5db21afbull, 21, 21, 17}},
    {"bicg",
     {0x60f4c305e79a3ea1ull, 30, 27, 29},
     {0xd18a432e10da402eull, 16, 16, 13}},
    {"doitgen",
     {0x85e20aa35682154cull, 45, 40, 45},
     {0x1bbe3da99f95cc74ull, 26, 26, 21}},
    {"mvt",
     {0x553837491338f835ull, 41, 37, 41},
     {0x78c93fcd5ce29fc3ull, 21, 21, 17}},
    {"symm",
     {0x9f30a937885c84d6ull, 28, 25, 28},
     {0xbac58dc319197cd8ull, 16, 16, 13}},
    {"syrk",
     {0x44df0d9263703d40ull, 31, 28, 31},
     {0x63100b5d3a482edbull, 16, 16, 13}},
    {"trmm",
     {0x9636b9418d98527ull, 31, 28, 30},
     {0xf185fdabede31292ull, 16, 16, 13}},
    {"cholesky",
     {0xf83115654b6a1e40ull, 38, 34, 38},
     {0x24cd8d12bff1f280ull, 21, 21, 17}},
    {"gramschmidt",
     {0xf4e2cc7499f7c67cull, 53, 47, 62},
     {0x1921b36765853553ull, 31, 31, 25}},
    {"lu",
     {0xa9b026966e94475cull, 46, 41, 50},
     {0x43c847d04139e6e5ull, 26, 26, 21}},
    {"trisolv",
     {0xcd60eeb32338c19full, 21, 19, 21},
     {0x6741998df537198dull, 11, 11, 9}},
    {"covariance",
     {0x9ebebe7cf6c87101ull, 67, 60, 60},
     {0xce19ec8d72429e9full, 36, 36, 29}},
    {"jacobi-2d",
     {0xdb4b0afe7b8ea382ull, 43, 38, 37},
     {0x6ffa97dd18fdd254ull, 26, 26, 21}},
    {"deriche",
     {0xe2d73b58d6bcedf4ull, 43, 37, 31},
     {0x26aa2b52d0514cc0ull, 31, 31, 25}},
    {"floyd-warshall",
     {0x478074cddb6c368full, 19, 16, 18},
     {0xf2f57113ea903166ull, 16, 16, 13}},
    {"fft",
     {0xeb6aa6dc51ed7e9aull, 13, 11, 9},
     {0xcfa24a7c288a85d5ull, 11, 11, 9}},
    {"md",
     {0x8c85f045582a35f3ull, 21, 11, 14},
     {0xc7b26e20b69360ecull, 11, 11, 9}},
    {"spmv",
     {0x7c52f766049c9461ull, 15, 11, 11},
     {0x7769b6f8d1b0a0e4ull, 11, 11, 9}},
    {"nw",
     {0xac99fb595aa0acc3ull, 19, 16, 18},
     {0xb0d9d445d83f22e8ull, 16, 16, 13}},
    {"cjpeg",
     {0x3ff0cd60c753be28ull, 68, 61, 54},
     {0x60245ddd325596fdull, 45, 45, 36}},
    {"epic",
     {0xb8d1608d20de481full, 56, 50, 42},
     {0xd43ae748e9d71160ull, 40, 40, 32}},
    {"cjpeg-rose7-preset",
     {0x43763565d01d8f04ull, 67, 60, 54},
     {0x68a47026efaa3cceull, 44, 44, 35}},
    {"zip-test",
     {0xff3e3d8344407490ull, 25, 22, 21},
     {0x9aa4a517a309823eull, 19, 19, 15}},
    {"parser-125k",
     {0xbf83612a2c004ae0ull, 14, 14, 13},
     {0x4c0c937463e96d58ull, 14, 14, 11}},
    {"nnet-test",
     {0xa3d7d9e6ce2de43dull, 65, 58, 75},
     {0x40ca54ede8a4ccc8ull, 36, 36, 29}},
    {"linear-alg-mid",
     {0xb2729fa990374a9bull, 37, 32, 38},
     {0x1bbfe1dfd9e50943ull, 26, 26, 21}},
    {"loops-all-mid-10k-sp",
     {0x182b2e41f3affc9full, 105, 93, 93},
     {0xdc1b0b6c2cd4ea2bull, 61, 61, 49}},
};

class ModelGoldenTest
    : public ::testing::TestWithParam<workloads::WorkloadInfo> {};

TEST_P(ModelGoldenTest, CandidateListsAndCountsMatchRecorded) {
  const workloads::WorkloadInfo& info = GetParam();
  const Golden* golden = nullptr;
  for (const Golden& g : kGolden) {
    if (info.name == g.workload) golden = &g;
  }
  Framework fw(info.build());
  ModelFacts cayman = factsOf(fw.model());
  ModelFacts qscores = factsOf(fw.qscores().model());
  ASSERT_NE(golden, nullptr)
      << "no golden row; recorded values: {\"" << info.name << "\", "
      << cayman << ", " << qscores << "},";
  EXPECT_EQ(cayman, golden->cayman) << info.name << " (Cayman model)";
  EXPECT_EQ(qscores, golden->qscores) << info.name << " (QsCores model)";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ModelGoldenTest, ::testing::ValuesIn(workloads::all()),
    [](const ::testing::TestParamInfo<workloads::WorkloadInfo>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cayman::accel
