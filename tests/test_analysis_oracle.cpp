// Brute-force oracle for the dense CFG analyses. Seeded random CFGs (with
// unreachable blocks, several Ret blocks, self-loops, irreducible cycles and
// duplicate edges) are checked against the textbook definitions, computed
// by graph search with no dominator algorithm involved:
//   - a dominates b  iff  b is unreachable from the entry once a is deleted;
//   - a post-dominates b  iff  b reaches no Ret block once a is deleted
//     (every Ret feeds one virtual exit);
//   - the natural loop of a back edge l -> h (h dominates l) is h plus every
//     block that reaches l without passing through h;
//   - a block's innermost loop is the smallest natural loop containing it
//     (the first back edge in reverse post-order breaks ties).
// Blocks outside a tree (unreachable ones, or in the post-dominator tree
// blocks that reach no Ret) dominate and are dominated by themselves only.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "analysis/regions.h"
#include "ir/builder.h"

namespace cayman::analysis {
namespace {

/// A random single-function module: block 0 is the entry, every terminator
/// is Br, CondBr (on the i1 argument) or Ret, and branches never target the
/// entry.
std::unique_ptr<ir::Module> randomCfg(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
  auto module = std::make_unique<ir::Module>("random-cfg");
  ir::Function* f =
      module->addFunction("f", ir::Type::voidTy(), {{ir::Type::i1(), "c"}});
  const uint32_t numBlocks = 1 + pick(12);
  for (uint32_t i = 0; i < numBlocks; ++i) {
    f->addBlock("b" + std::to_string(i));
  }
  auto target = [&]() {
    return f->blocks()[1 + pick(numBlocks - 1)].get();
  };
  ir::IRBuilder ir(module.get());
  for (uint32_t i = 0; i < numBlocks; ++i) {
    ir.setInsertPoint(f->blocks()[i].get());
    uint32_t kind = numBlocks == 1 ? 0 : pick(10);
    if (kind < 2) {
      ir.ret();
    } else if (kind < 5) {
      ir.br(target());
    } else {
      ir.condBr(f->argument(0), target(), target());
    }
  }
  return module;
}

/// Graph searches over block indices.
class Oracle {
 public:
  explicit Oracle(const ir::Function& f) : n_(f.numBlocks()) {
    succs_.resize(n_);
    isRet_.resize(n_, false);
    for (const auto& block : f.blocks()) {
      const ir::Instruction* term = block->terminator();
      isRet_[block->index()] = term->opcode() == ir::Opcode::Ret;
      for (const ir::BasicBlock* succ : term->successors()) {
        succs_[block->index()].push_back(succ->index());
      }
    }
    reachable_ = reachFromEntry(kNone);
    for (size_t b = 0; b < n_; ++b) {
      inPostTree_.push_back(reachable_[b] && reachesExit(b, kNone));
    }
  }

  size_t size() const { return n_; }
  bool reachable(size_t b) const { return reachable_[b]; }
  bool inPostTree(size_t b) const { return inPostTree_[b]; }
  const std::vector<size_t>& succs(size_t b) const { return succs_[b]; }

  bool dominates(size_t a, size_t b) const {
    if (a == b) return true;
    if (!reachable_[b]) return false;
    return a == 0 || !reachFromEntry(a)[b];
  }

  bool postDominates(size_t a, size_t b) const {
    if (a == b) return true;
    if (!inPostTree_[b]) return false;
    return !reachesExit(b, a);
  }

  /// The strict dominator that every other strict dominator dominates.
  template <typename Dom>
  std::optional<size_t> immediate(size_t b, Dom&& dom) const {
    std::vector<size_t> strict;
    for (size_t a = 0; a < n_; ++a) {
      if (a != b && dom(a, b)) strict.push_back(a);
    }
    for (size_t d : strict) {
      bool closest = true;
      for (size_t other : strict) closest = closest && dom(other, d);
      if (closest) return d;
    }
    return std::nullopt;
  }

  /// h plus every block that reaches `latch` without passing through h.
  std::vector<bool> naturalLoop(size_t header, size_t latch) const {
    std::vector<bool> body(n_, false);
    body[header] = true;
    for (size_t b = 0; b < n_; ++b) {
      if (body[b] || !reachable_[b]) continue;
      body[b] = reaches(b, latch, header);
    }
    return body;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  std::vector<bool> reachFromEntry(size_t removed) const {
    std::vector<bool> seen(n_, false);
    if (removed == 0) return seen;
    std::vector<size_t> work{0};
    seen[0] = true;
    while (!work.empty()) {
      size_t b = work.back();
      work.pop_back();
      for (size_t s : succs_[b]) {
        if (s == removed || seen[s]) continue;
        seen[s] = true;
        work.push_back(s);
      }
    }
    return seen;
  }

  /// Does `from` reach `to` along a path that avoids `removed`?
  bool reaches(size_t from, size_t to, size_t removed) const {
    std::vector<bool> seen(n_, false);
    std::vector<size_t> work{from};
    seen[from] = true;
    while (!work.empty()) {
      size_t b = work.back();
      work.pop_back();
      if (b == to) return true;
      for (size_t s : succs_[b]) {
        if (s == removed || seen[s]) continue;
        seen[s] = true;
        work.push_back(s);
      }
    }
    return false;
  }

  bool reachesExit(size_t from, size_t removed) const {
    for (size_t e = 0; e < n_; ++e) {
      if (isRet_[e] && e != removed && reaches(from, e, removed)) return true;
    }
    return false;
  }

  size_t n_;
  std::vector<std::vector<size_t>> succs_;
  std::vector<bool> isRet_;
  std::vector<bool> reachable_;
  std::vector<bool> inPostTree_;
};

const ir::BasicBlock* blockAt(const ir::Function& f, std::optional<size_t> i) {
  return i.has_value() ? f.blocks()[*i].get() : nullptr;
}

constexpr uint32_t kSeeds = 2000;

TEST(AnalysisOracleTest, GeneratorCoversTheAwkwardShapes) {
  int unreachable = 0, multiExit = 0, noExit = 0, loops = 0, multiLatch = 0;
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    auto module = randomCfg(seed);
    const ir::Function& f = *module->functions()[0];
    Cfg cfg(f);
    if (cfg.rpo().size() < f.numBlocks()) ++unreachable;
    if (cfg.exitBlocks().size() > 1) ++multiExit;
    if (cfg.exitBlocks().empty()) ++noExit;
    LoopInfo li(cfg, DominatorTree::dominators(cfg));
    if (!li.loops().empty()) ++loops;
    if (std::any_of(li.loops().begin(), li.loops().end(),
                    [](const auto& l) { return l->latches().size() > 1; })) {
      ++multiLatch;
    }
  }
  EXPECT_GT(unreachable, 700);
  EXPECT_GT(multiExit, 80);
  EXPECT_GT(noExit, 300);
  EXPECT_GT(loops, 500);
  EXPECT_GT(multiLatch, 100);  // headers with several back edges
}

TEST(AnalysisOracleTest, CfgMatchesBruteForce) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto module = randomCfg(seed);
    const ir::Function& f = *module->functions()[0];
    Cfg cfg(f);
    Oracle oracle(f);
    ASSERT_FALSE(cfg.rpo().empty());
    EXPECT_EQ(cfg.rpo()[0], f.entry());
    size_t reachable = 0;
    for (const auto& block : f.blocks()) {
      size_t b = block->index();
      EXPECT_EQ(cfg.isReachable(block.get()), oracle.reachable(b));
      if (!oracle.reachable(b)) continue;
      ++reachable;
      EXPECT_EQ(cfg.rpo()[static_cast<size_t>(cfg.rpoIndex(block.get()))],
                block.get());
      // Predecessors: every reachable block with an edge into b, once per
      // edge.
      std::vector<const ir::BasicBlock*> want;
      for (size_t p = 0; p < oracle.size(); ++p) {
        if (!oracle.reachable(p)) continue;
        for (size_t s : oracle.succs(p)) {
          if (s == b) want.push_back(f.blocks()[p].get());
        }
      }
      std::vector<const ir::BasicBlock*> got = cfg.predecessors(block.get());
      auto byIndex = [](const ir::BasicBlock* x, const ir::BasicBlock* y) {
        return x->index() < y->index();
      };
      std::sort(want.begin(), want.end(), byIndex);
      std::sort(got.begin(), got.end(), byIndex);
      EXPECT_EQ(got, want);
    }
    EXPECT_EQ(cfg.rpo().size(), reachable);
  }
}

TEST(AnalysisOracleTest, DominatorsMatchBruteForce) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto module = randomCfg(seed);
    const ir::Function& f = *module->functions()[0];
    Cfg cfg(f);
    Oracle oracle(f);
    DominatorTree dom = DominatorTree::dominators(cfg);
    auto oracleDom = [&](size_t a, size_t b) {
      return oracle.dominates(a, b);
    };
    for (const auto& a : f.blocks()) {
      for (const auto& b : f.blocks()) {
        ASSERT_EQ(dom.dominates(a.get(), b.get()),
                  oracle.dominates(a->index(), b->index()))
            << a->name() << " dom " << b->name();
      }
      std::optional<size_t> idom;
      if (a->index() != 0 && oracle.reachable(a->index())) {
        idom = oracle.immediate(a->index(), oracleDom);
      }
      EXPECT_EQ(dom.idom(a.get()), blockAt(f, idom)) << a->name();
    }
  }
}

TEST(AnalysisOracleTest, PostDominatorsMatchBruteForce) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto module = randomCfg(seed);
    const ir::Function& f = *module->functions()[0];
    Cfg cfg(f);
    Oracle oracle(f);
    DominatorTree postDom = DominatorTree::postDominators(cfg);
    auto oraclePostDom = [&](size_t a, size_t b) {
      return oracle.postDominates(a, b);
    };
    for (const auto& a : f.blocks()) {
      for (const auto& b : f.blocks()) {
        ASSERT_EQ(postDom.dominates(a.get(), b.get()),
                  oracle.postDominates(a->index(), b->index()))
            << a->name() << " pdom " << b->name();
      }
      // The ipdom is nullptr when only the virtual exit post-dominates.
      std::optional<size_t> ipdom;
      if (oracle.inPostTree(a->index())) {
        ipdom = oracle.immediate(a->index(), oraclePostDom);
      }
      EXPECT_EQ(postDom.idom(a.get()), blockAt(f, ipdom)) << a->name();
    }
  }
}

TEST(AnalysisOracleTest, NaturalLoopsMatchBruteForce) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto module = randomCfg(seed);
    const ir::Function& f = *module->functions()[0];
    Cfg cfg(f);
    Oracle oracle(f);
    LoopInfo loopInfo(cfg, DominatorTree::dominators(cfg));

    // One loop per header: the union of its back edges' natural loops,
    // numbered by the first back edge in reverse post-order of the latch,
    // then successor order. Latches are listed once each, in that order.
    struct Want {
      size_t header;
      std::vector<size_t> latches;
      std::vector<bool> body;
      size_t size = 0;
    };
    std::vector<Want> want;
    for (const ir::BasicBlock* latch : cfg.rpo()) {
      for (size_t h : oracle.succs(latch->index())) {
        if (!oracle.dominates(h, latch->index())) continue;
        auto it = std::find_if(want.begin(), want.end(),
                               [h](const Want& w) { return w.header == h; });
        if (it == want.end()) {
          want.push_back({h, {}, std::vector<bool>(f.numBlocks(), false)});
          it = want.end() - 1;
        }
        if (std::find(it->latches.begin(), it->latches.end(),
                      latch->index()) == it->latches.end()) {
          it->latches.push_back(latch->index());
        }
        std::vector<bool> body = oracle.naturalLoop(h, latch->index());
        for (size_t b = 0; b < body.size(); ++b) {
          if (body[b]) it->body[b] = true;
        }
      }
    }
    for (Want& w : want) {
      w.size = static_cast<size_t>(
          std::count(w.body.begin(), w.body.end(), true));
    }

    const auto& loops = loopInfo.loops();
    ASSERT_EQ(loops.size(), want.size());
    for (size_t i = 0; i < loops.size(); ++i) {
      const Loop& loop = *loops[i];
      EXPECT_EQ(loop.index(), i);
      EXPECT_EQ(loop.header()->index(), want[i].header);
      std::vector<size_t> latches;
      for (const ir::BasicBlock* latch : loop.latches()) {
        latches.push_back(latch->index());
      }
      EXPECT_EQ(latches, want[i].latches);
      EXPECT_EQ(loop.latch(), want[i].latches.size() == 1
                                  ? f.blocks()[want[i].latches[0]].get()
                                  : nullptr);
      std::vector<const ir::BasicBlock*> blocks;
      std::vector<const ir::BasicBlock*> exits;
      for (const auto& block : f.blocks()) {
        size_t b = block->index();
        EXPECT_EQ(loop.contains(block.get()), want[i].body[b]) << block->name();
        if (want[i].body[b]) blocks.push_back(block.get());
        bool exit = false;
        for (size_t p = 0; p < f.numBlocks() && !want[i].body[b]; ++p) {
          const auto& s = oracle.succs(p);
          exit = exit || (want[i].body[p] &&
                          std::find(s.begin(), s.end(), b) != s.end());
        }
        if (exit) exits.push_back(block.get());
      }
      EXPECT_EQ(loop.blocks(), blocks);
      EXPECT_EQ(loop.exitBlocks(), exits);
    }

    // Innermost loop: the smallest containing loop, first on ties.
    for (const auto& block : f.blocks()) {
      const Loop* innermost = nullptr;
      size_t best = 0;
      for (size_t i = 0; i < want.size(); ++i) {
        if (!want[i].body[block->index()]) continue;
        if (innermost == nullptr || want[i].size < best) {
          innermost = loops[i].get();
          best = want[i].size;
        }
      }
      EXPECT_EQ(loopInfo.loopFor(block.get()), innermost) << block->name();
    }
  }
}

}  // namespace
}  // namespace cayman::analysis
