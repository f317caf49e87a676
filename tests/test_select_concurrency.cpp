// Concurrency guards for selection on one shared Framework, run by the TSan
// CI job. Threads calling the Cayman and QsCores selectors at different
// budgets must each get exactly the serial answer, which races the DP's
// per-thread scratch stack and arena; threads calling evaluate() at mixed
// budgets race the selection memos' lookups and offers (DESIGN §16).
#include <gtest/gtest.h>

#include <thread>

#include "cayman/framework.h"
#include "report_describe.h"
#include "workloads/workloads.h"

namespace cayman {
namespace {

using testing::describe;

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

    // The QsCores DP runs on the baseline's model directly: going through
    // QsCoresFlow::best would serve budgets its memo covers without it.
    auto qscoresBest = [&](double budget) {
      select::SelectorParams params;
      params.areaBudgetUm2 = fw.budgetUm2(budget);
      params.clockRatio = ratio;
      select::SelectStats stats;
      return select::CandidateSelector(fw.qscores().model(), params)
          .best(stats);
    };
    // Serial answers first: they also warm the generate caches, so the
    // threads below race only on selection.
    select::Solution cayman[kThreads];
    select::Solution qscores[kThreads];
    for (int b = 0; b < kThreads; ++b) {
      cayman[b] = fw.best(budgets[b]);
      qscores[b] = qscoresBest(budgets[b]);
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
            qscoresSeen[t][round][b] = qscoresBest(budgets[b]);
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

// Threads evaluate mixed budgets, bound and unbound, on one cold Framework:
// offers race with lookups and with each other, and every report must still
// equal the fresh-Framework answer.
TEST(SelectConcurrencyTest, ConcurrentEvaluateAtMixedBudgets) {
  constexpr int kEvaluateRounds = 3;
  const std::vector<double> ratios = {0.02, 0.05, 0.25, 0.5, 0.9, 100.0};
  for (const char* name : {"3mm", "cjpeg"}) {
    std::vector<std::string> fresh;
    for (double ratio : ratios) {
      fresh.push_back(
          describe(Framework(workloads::build(name)).evaluate(ratio)));
    }
    Framework fw(workloads::build(name));
    std::vector<std::vector<std::string>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Thread t starts at its own budget and alternates direction, so
        // bound and unbound budgets interleave across threads.
        for (int round = 0; round < kEvaluateRounds; ++round) {
          for (size_t k = 0; k < ratios.size(); ++k) {
            const size_t step =
                (t + round) % 2 == 0 ? k : ratios.size() - 1 - k;
            const size_t b = (step + static_cast<size_t>(t)) % ratios.size();
            seen[t].push_back(describe(fw.evaluate(ratios[b])) + "@" +
                              std::to_string(b));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(seen[t].size(), kEvaluateRounds * ratios.size());
      for (const std::string& report : seen[t]) {
        const size_t at = report.rfind('@');
        const size_t b = std::stoul(report.substr(at + 1));
        EXPECT_EQ(report.substr(0, at), fresh[b])
            << name << " thread " << t << " budget " << ratios[b];
      }
    }
  }
}

}  // namespace
}  // namespace cayman
