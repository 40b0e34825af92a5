//===- perfbench/probe.cpp - Input generator and per-layer probes ---------===//
//
// Part of psopt's end-to-end benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// A helper binary for perfbench/run.py. It links the psopt library and
// measures layers from outside, through public functions only:
//
//   perfbench-probe gen <seed> <threads> <filler> <skeletons>
//       print a litmus/ScaleWorkload program
//   perfbench-probe explore <file> [--no-promises]
//       explore through an InterleavingMachine subclass that times and
//       forwards successors(), replay canonicalizeState and uncached
//       consistent() on sampled successors, print one JSON object
//   perfbench-probe totals <seed> [--no-promises]
//       cross-check the wrapper's successors() count against an
//       independent breadth-first search on a small Reduce=false input
//   perfbench-probe lang <file>...
//   perfbench-probe lang-random <base-seed> <runs>
//       time parse, print and footprint analysis on the given programs, or
//       on litmus-scale random programs seeded like a fuzz campaign
//
//===----------------------------------------------------------------------===//

#include "analysis/Footprint.h"
#include "explore/Canonical.h"
#include "explore/ExploreNode.h"
#include "explore/Explorer.h"
#include "explore/Reduction.h"
#include "fuzz/Fuzzer.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/RandomProgram.h"
#include "litmus/ScaleWorkload.h"
#include "ps/Certification.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

using namespace psopt;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Every CanonStride-th successor is kept for the canonicalization replay,
/// and every CertStride-th promise-holding one for the certification
/// replay, up to the caps. Fixed strides keep the samples comparable
/// between revisions.
constexpr std::uint64_t CanonStride = 16;
constexpr std::size_t CanonCap = 20000;
constexpr std::uint64_t CertStride = 8;
constexpr std::size_t CertCap = 1000;

/// The interleaving machine with a stopwatch and counters around
/// successors(). explore() runs at one job here, so plain mutable members
/// suffice.
class TimedMachine : public InterleavingMachine {
public:
  TimedMachine(const Program &P, StepConfig C, bool Sample)
      : InterleavingMachine(P, C), Sample(Sample) {}

  void successors(const MachineState &S,
                  std::vector<MachineSuccessor> &Out) const override {
    Clock::time_point T0 = Clock::now();
    InterleavingMachine::successors(S, Out);
    Nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - T0)
                 .count();
    ++Calls;
    Outs += Out.size();
    for (const MachineSuccessor &Succ : Out) {
      if (Succ.Ev.K == MachineEvent::Kind::Abort)
        continue;
      ++Canonicalizable;
      if (!Sample)
        continue;
      if (Canonicalizable % CanonStride == 0 && CanonSample.size() < CanonCap)
        CanonSample.push_back(Succ.State);
      if (holdsPromises(Succ.State) && ++PromiseHolding % CertStride == 0 &&
          CertSample.size() < CertCap)
        CertSample.push_back(Succ.State);
    }
  }

  static bool holdsPromises(const MachineState &S) {
    for (Tid T = 0; T < static_cast<Tid>(S.Threads.size()); ++T)
      if (S.Mem.hasConcretePromises(T))
        return true;
    return false;
  }

  bool Sample;
  mutable std::uint64_t Nanos = 0, Calls = 0, Outs = 0, Canonicalizable = 0,
                        PromiseHolding = 0;
  mutable std::vector<MachineState> CanonSample, CertSample;
};

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool loadProgram(const char *Path, Program &Out) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "cannot open %s\n", Path);
    return false;
  }
  ParseResult R = parseProgram(Text);
  if (!R.ok()) {
    std::fprintf(stderr, "%s:%u: %s\n", Path, R.ErrorLine, R.Error.c_str());
    return false;
  }
  Out = std::move(*R.Prog);
  return true;
}

StepConfig stepConfig(bool Promises) {
  StepConfig SC;
  SC.EnablePromises = Promises;
  return SC;
}

int cmdGen(int Argc, char **Argv) {
  if (Argc != 6)
    return 2;
  ScaleWorkloadConfig C;
  C.Seed = std::strtoull(Argv[2], nullptr, 10);
  C.NumThreads = static_cast<unsigned>(std::atoi(Argv[3]));
  C.FillerPerThread = static_cast<unsigned>(std::atoi(Argv[4]));
  C.Skeletons = static_cast<unsigned>(std::atoi(Argv[5]));
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  std::printf("%s", printProgram(generateScaleWorkload(C)).c_str());
  return 0;
}

int cmdExplore(const char *Path, bool Promises) {
  Program P;
  if (!loadProgram(Path, P))
    return 2;
  ExploreConfig EC; // the CLI's defaults: one job, reduction on
  // Two searches: the timed one keeps no states, because a kept copy pins
  // copy-on-write memory lists and slows the search it measures; the
  // second one only collects the replay samples.
  TimedMachine Timed(P, stepConfig(Promises), /*Sample=*/false);
  Clock::time_point T0 = Clock::now();
  BehaviorSet B = explore(Timed, EC);
  double SearchSec = secondsSince(T0);
  TimedMachine M(P, stepConfig(Promises), /*Sample=*/true);
  if (explore(M, EC) != B) {
    std::fprintf(stderr, "sampling search diverged from the timed one\n");
    return 1;
  }

  // Replay the canonicalizer on the sampled successors, after the same
  // projection the reduced expansion applies; only canonicalizeState is
  // timed.
  Reducer Red(M, EC.AnalysisFusion);
  double CanonSec = 0;
  for (const MachineState &S : M.CanonSample) {
    MachineState Copy = S;
    Red.project(Copy);
    Clock::time_point C0 = Clock::now();
    canonicalizeState(Copy);
    CanonSec += secondsSince(C0);
  }
  double CanonPerCall =
      M.CanonSample.empty() ? 0 : CanonSec / M.CanonSample.size();

  // Replay certification without the cache on the sampled promise-holding
  // successors: the cost of a cold certification search.
  double CertSec = 0;
  std::uint64_t CertCalls = 0;
  for (const MachineState &S : M.CertSample) {
    for (Tid T = 0; T < static_cast<Tid>(S.Threads.size()); ++T) {
      if (!S.Mem.hasConcretePromises(T))
        continue;
      Clock::time_point C0 = Clock::now();
      consistent(P, T, S.Threads[T], S.Mem, M.config(), /*Cache=*/nullptr);
      CertSec += secondsSince(C0);
      ++CertCalls;
    }
  }

  double SuccSec = static_cast<double>(Timed.Nanos) * 1e-9;
  std::printf("{\"exhausted\": %s, \"nodes\": %llu, \"transitions\": %llu, "
              "\"search_s\": %.6f, \"successors_s\": %.6f, "
              "\"successors_calls\": %llu, \"successors_out\": %llu, "
              "\"self_s\": %.6f, \"canonicalize_s\": %.6f, "
              "\"canonicalize_samples\": %zu, \"cert_search_s\": %.6f, "
              "\"cert_search_calls\": %llu}\n",
              B.Exhausted ? "true" : "false",
              static_cast<unsigned long long>(B.NodesVisited),
              static_cast<unsigned long long>(B.Transitions), SearchSec,
              SuccSec, static_cast<unsigned long long>(Timed.Calls),
              static_cast<unsigned long long>(Timed.Outs), SearchSec - SuccSec,
              CanonPerCall * static_cast<double>(Timed.Canonicalizable),
              M.CanonSample.size(), CertSec,
              static_cast<unsigned long long>(CertCalls));
  return 0;
}

/// A breadth-first search written against the Machine interface alone:
/// (canonical state, trace) nodes, the explorer's MaxOuts rule, no
/// reduction. It shares no code with explore() beyond the machine and the
/// canonicalizer.
struct IndependentCount {
  std::uint64_t Nodes = 0, Terminated = 0;
};

IndependentCount independentSearch(const Machine &M, unsigned MaxOuts) {
  IndependentCount R;
  std::unordered_set<ExploreNode, ExploreNodeHash> Seen;
  std::deque<ExploreNode> Work;
  ExploreNode Start{*M.initial(), {}};
  canonicalizeState(Start.State);
  Work.push_back(std::move(Start));
  std::vector<MachineSuccessor> Succs;
  while (!Work.empty()) {
    ExploreNode N = std::move(Work.front());
    Work.pop_front();
    auto [It, IsNew] = Seen.insert(std::move(N));
    if (!IsNew)
      continue;
    ++R.Nodes;
    if (It->State.allTerminated()) {
      ++R.Terminated;
      continue;
    }
    M.successors(It->State, Succs);
    for (MachineSuccessor &S : Succs) {
      if (S.Ev.K == MachineEvent::Kind::Abort)
        continue;
      ExploreNode Child{std::move(S.State), It->Outs};
      if (S.Ev.K == MachineEvent::Kind::Out) {
        if (Child.Outs.size() >= MaxOuts)
          continue;
        Child.Outs.push_back(S.Ev.OutVal);
      }
      canonicalizeState(Child.State);
      Work.push_back(std::move(Child));
    }
  }
  return R;
}

int cmdTotals(std::uint64_t Seed, bool Promises) {
  ScaleWorkloadConfig C;
  C.Seed = Seed;
  C.NumThreads = 3;
  C.FillerPerThread = 6;
  C.Skeletons = 3;
  Program P = generateScaleWorkload(C);
  TimedMachine M(P, stepConfig(Promises), /*Sample=*/false);
  ExploreConfig EC;
  EC.Reduce = false;
  BehaviorSet B = explore(M, EC);
  std::uint64_t Calls = M.Calls;
  InterleavingMachine Plain(P, stepConfig(Promises));
  IndependentCount I = independentSearch(Plain, EC.MaxOuts);
  std::printf("{\"exhausted\": %s, \"nodes\": %llu, "
              "\"successors_calls\": %llu, \"independent_nodes\": %llu, "
              "\"independent_terminated\": %llu}\n",
              B.Exhausted ? "true" : "false",
              static_cast<unsigned long long>(B.NodesVisited),
              static_cast<unsigned long long>(Calls),
              static_cast<unsigned long long>(I.Nodes),
              static_cast<unsigned long long>(I.Terminated));
  return 0;
}

/// The fuzzer's program sizes (fuzz/Fuzzer.cpp generatorConfig), minus its
/// per-run coin flips: two threads, three instructions each, MP skeleton.
RandomProgramConfig fuzzScaleConfig(std::uint64_t Seed) {
  RandomProgramConfig G;
  G.Seed = Seed;
  G.NumThreads = 2;
  G.InstrsPerThread = 3;
  G.NumNaVars = 2;
  G.NumAtomicVars = 2;
  G.AcqRelPercent = 50;
  G.CasWeight = 2;
  G.RedundancyPercent = 35;
  G.PrintLoadedRegs = true;
  G.MpSkeletonPercent = 60;
  G.FenceMpPercent = 50;
  G.FencePercent = 12;
  G.ReorderBaitPercent = 40;
  return G;
}

/// Times parse, print and footprint analysis over \p Texts, each repeated
/// until the pass over all texts has run Reps times; prints the median
/// seconds of one pass per layer.
int timeLang(const std::vector<std::string> &Texts) {
  constexpr unsigned Reps = 21;
  std::vector<double> Parse, Print, Foot;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    double ParseSec = 0, PrintSec = 0, FootSec = 0;
    for (const std::string &Text : Texts) {
      Clock::time_point T0 = Clock::now();
      ParseResult R = parseProgram(Text);
      ParseSec += secondsSince(T0);
      if (!R.ok()) {
        std::fprintf(stderr, "parse error: %s\n", R.Error.c_str());
        return 1;
      }
      T0 = Clock::now();
      std::string Again = printProgram(*R.Prog);
      PrintSec += secondsSince(T0);
      if (Again.empty())
        return 1;
      T0 = Clock::now();
      FootprintAnalysis FA(*R.Prog);
      FootSec += secondsSince(T0);
      if (FA.threadCount() != R.Prog->threads().size())
        return 1;
    }
    Parse.push_back(ParseSec);
    Print.push_back(PrintSec);
    Foot.push_back(FootSec);
  }
  auto Median = [](std::vector<double> &V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  std::printf("{\"programs\": %zu, \"parse_s\": %.9f, \"print_s\": %.9f, "
              "\"footprint_s\": %.9f}\n",
              Texts.size(), Median(Parse), Median(Print), Median(Foot));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-probe gen <seed> <threads> <filler> "
               "<skeletons>\n"
               "       perfbench-probe explore <file> [--no-promises]\n"
               "       perfbench-probe totals <seed> [--no-promises]\n"
               "       perfbench-probe lang <file>...\n"
               "       perfbench-probe lang-random <base-seed> <runs>\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  bool Promises = !(Argc > 3 && std::strcmp(Argv[3], "--no-promises") == 0);
  if (Cmd == "gen")
    return cmdGen(Argc, Argv);
  if (Cmd == "explore" && Argc >= 3)
    return cmdExplore(Argv[2], Promises);
  if (Cmd == "totals" && Argc >= 3)
    return cmdTotals(std::strtoull(Argv[2], nullptr, 10), Promises);
  if (Cmd == "lang" && Argc >= 3) {
    std::vector<std::string> Texts;
    for (int I = 2; I < Argc; ++I) {
      Texts.emplace_back();
      if (!readFile(Argv[I], Texts.back()))
        return 2;
    }
    return timeLang(Texts);
  }
  if (Cmd == "lang-random" && Argc == 4) {
    std::uint64_t Base = std::strtoull(Argv[2], nullptr, 10);
    unsigned Runs = static_cast<unsigned>(std::atoi(Argv[3]));
    std::vector<std::string> Texts;
    for (unsigned I = 0; I < Runs; ++I)
      Texts.push_back(printProgram(
          generateRandomProgram(fuzzScaleConfig(fuzzRunSeed(Base, I)))));
    return timeLang(Texts);
  }
  return usage();
}
