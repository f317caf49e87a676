// Concurrency guard for the selector's per-thread scratch stack: threads
// calling best() at different budgets on one shared Framework must each get
// exactly the serial answer, for the Cayman selector and the QsCores
// baseline (which runs the same DP). The TSan CI job runs this binary.
#include <gtest/gtest.h>

#include <thread>

#include "cayman/framework.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 25;

void expectSameSolution(const select::Solution& a, const select::Solution& b,
                        const std::string& context) {
  EXPECT_EQ(a.areaUm2, b.areaUm2) << context;
  EXPECT_EQ(a.accelCycles, b.accelCycles) << context;
  EXPECT_EQ(a.cpuCycles, b.cpuCycles) << context;
  EXPECT_TRUE(a.accelerators == b.accelerators) << context;
}

TEST(SelectConcurrencyTest, ConcurrentBestMatchesSerial) {
  for (const char* name : {"3mm", "cjpeg"}) {
    Framework fw(workloads::build(name));
    const double ratio = fw.options().clockRatio();
    const double budgets[kThreads] = {0.05, 0.25, 0.5, 0.9};

    // Serial answers first: they also warm the generate caches, so the
    // threads below race only on selection.
    select::Solution cayman[kThreads];
    select::Solution qscores[kThreads];
    for (int b = 0; b < kThreads; ++b) {
      cayman[b] = fw.best(budgets[b]);
      qscores[b] = fw.qscores().best(fw.budgetUm2(budgets[b]), ratio);
    }

    // Thread t runs every budget, starting at its own, so at any moment the
    // threads select at different budgets.
    select::Solution caymanSeen[kThreads][kRounds][kThreads];
    select::Solution qscoresSeen[kThreads][kRounds][kThreads];
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (int k = 0; k < kThreads; ++k) {
            const int b = (t + k) % kThreads;
            caymanSeen[t][round][b] = fw.best(budgets[b]);
            qscoresSeen[t][round][b] =
                fw.qscores().best(fw.budgetUm2(budgets[b]), ratio);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < kThreads; ++t) {
      for (int round = 0; round < kRounds; ++round) {
        for (int b = 0; b < kThreads; ++b) {
          const std::string context = std::string(name) + " thread " +
                                      std::to_string(t) + " budget " +
                                      std::to_string(budgets[b]);
          expectSameSolution(caymanSeen[t][round][b], cayman[b],
                             context + " cayman");
          expectSameSolution(qscoresSeen[t][round][b], qscores[b],
                             context + " qscores");
        }
      }
    }
  }
}

}  // namespace
}  // namespace cayman
