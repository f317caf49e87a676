// Reproduces Fig. 4: the impact of the data-access interfaces on the
// `y[i] = k*x[i] + b` loop under three control-flow implementations —
// sequential, pipelined, and unrolled-by-2.
//
// Paper reference points: sequential 6N (coupled) vs 4N (decoupled);
// pipelined II 3 (coupled) vs 1 (decoupled); unrolled 9(N/2) (coupled) vs
// 4(N/2) (scratchpad).
#include <cstdio>
#include <string>

#include "hls/scheduler.h"
#include "ir/verifier.h"
#include "support/thread_pool.h"
#include "workloads/kernel_builder.h"

using namespace cayman;

namespace {

std::unique_ptr<ir::Module> linearKernel(int64_t n) {
  auto module = std::make_unique<ir::Module>("linear");
  auto* x = module->addGlobal("x", ir::Type::f64(), static_cast<uint64_t>(n));
  auto* y = module->addGlobal("y", ir::Type::f64(), static_cast<uint64_t>(n));
  workloads::KernelBuilder kb(module.get());
  kb.beginFunction("main");
  ir::Value* i = kb.beginLoop(0, n, "i");
  kb.storeAt(y, i,
             kb.ir().fadd(kb.ir().fmul(kb.loadAt(x, i), kb.ir().f64(2.0)),
                          kb.ir().f64(1.0)));
  kb.endLoop();
  kb.endFunction();
  ir::verifyOrThrow(*module);
  return module;
}

hls::IfaceAssignment assign(const ir::BasicBlock& body, hls::IfaceKind kind,
                            unsigned partitions) {
  hls::IfaceAssignment ifaces;
  for (const auto& inst : body.instructions()) {
    if (!inst->isMemoryAccess()) continue;
    hls::AccessIface iface;
    iface.kind = kind;
    iface.partitions = partitions;
    const ir::Value* ptr = inst->pointerOperand();
    while (const auto* gep = ir::dynCast<ir::Instruction>(ptr)) {
      ptr = gep->operand(0);
    }
    iface.array = ir::dynCast<ir::GlobalArray>(ptr);
    ifaces[inst.get()] = iface;
  }
  return ifaces;
}

}  // namespace

int main() {
  constexpr int64_t kN = 1024;
  auto module = linearKernel(kN);
  const ir::BasicBlock* body = module->entryFunction()->blockByName("i.body");

  hls::TechLibrary tech = hls::TechLibrary::nangate45();
  hls::InterfaceTiming timing;

  std::printf("Fig. 4 reproduction: y[i]=k*x[i]+b, N=%lld, 500 MHz\n\n",
              static_cast<long long>(kN));
  std::printf("%-16s %-12s %14s %14s %12s\n", "control flow", "interface",
              "latency (cyc)", "cycles/iter", "paper shape");

  struct Case {
    const char* ctrl;
    const char* iface;
    hls::IfaceKind kind;
    unsigned unroll;
    bool pipelined;
    const char* paper;
  };
  const Case cases[] = {
      {"sequential", "coupled", hls::IfaceKind::Coupled, 1, false, "6N"},
      {"sequential", "decoupled", hls::IfaceKind::Decoupled, 1, false, "4N"},
      {"pipelined", "coupled", hls::IfaceKind::Coupled, 1, true, "II=3"},
      {"pipelined", "decoupled", hls::IfaceKind::Decoupled, 1, true, "II=1"},
      {"unrolled x2", "coupled", hls::IfaceKind::Coupled, 2, false, "9(N/2)"},
      {"unrolled x2", "scratchpad", hls::IfaceKind::Scratchpad, 2, false,
       "4(N/2)"},
  };

  // Each case schedules the shared (read-only) block with its own scheduler,
  // which counts its calls and so belongs to one thread; lines are rendered
  // per task and printed in case order.
  ThreadPool pool;
  std::vector<std::string> lines = parallelIndexMap(
      pool, std::size(cases), [&](size_t index) {
        const Case& c = cases[index];
        hls::Scheduler scheduler(tech, timing, 2.0);  // 500 MHz
        hls::IfaceAssignment ifaces =
            assign(*body, c.kind, /*partitions=*/c.unroll);
        hls::BlockSchedule sched =
            scheduler.scheduleBlock(*body, ifaces, c.unroll);
        uint64_t iterations = static_cast<uint64_t>(kN) / c.unroll;
        char line[128];
        if (c.pipelined) {
          unsigned ii = scheduler.resMII(*body, ifaces, c.unroll);
          uint64_t total = hls::Scheduler::pipelinedCycles(
              iterations, sched.latency + 1, ii);
          std::snprintf(line, sizeof(line),
                        "%-16s %-12s %14llu %14.2f %12s (II=%u)", c.ctrl,
                        c.iface, static_cast<unsigned long long>(total),
                        static_cast<double>(ii), c.paper, ii);
        } else {
          uint64_t total = iterations * (sched.latency + 1);  // +1: control
          double perIter =
              static_cast<double>(total) / static_cast<double>(kN);
          std::snprintf(line, sizeof(line), "%-16s %-12s %14llu %14.2f %12s",
                        c.ctrl, c.iface,
                        static_cast<unsigned long long>(total), perIter,
                        c.paper);
        }
        return std::string(line);
      });
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());

  std::printf(
      "\nshape checks: decoupled < coupled sequentially; pipelined decoupled "
      "reaches II=1; banked scratchpad removes the unrolled port "
      "serialization.\n");
  return 0;
}
