// perfbench: the repository benchmark. One invocation runs one workload
// and prints, as its last stdout line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See perfbench/README.md for the workloads and every metric.
//
//   perfbench --workload train-minibatch --seed 1 --seconds 25 --trace 0

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve_phase.h"
#include "src/tensor/gemm.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/util/rng.h"
#include "train_phase.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace sampnn;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool tiny = false;  ///< self-test size: narrow net, small data, low rates
  std::string trace_out;
  std::string source_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--workload") {
      args->workload = value();
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value());
    } else if (flag == "--trace") {
      args->trace = std::string(value()) == "1";
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--trace-out") {
      args->trace_out = value();
    } else if (flag == "--source-sha") {
      args->source_sha = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  const bool known = args->workload == "train-minibatch" ||
                     args->workload == "train-stochastic" ||
                     args->workload == "serve-open-loop";
  if (!known) std::fprintf(stderr, "unknown --workload '%s'\n", args->workload.c_str());
  return known && args->seconds > 0.0;
}

// The same host facts results/BENCH_gemm.json records, plus the serve and
// build configuration.
std::string HostJson(const Args& args, size_t serve_workers) {
  const CacheGeometry cache = DetectCacheGeometry();
  const GemmBlocking block = GemmBlockSizes();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"hardware_concurrency\": %u, \"avx2_fma\": %s, "
      "\"cache\": {\"l1d\": %zu, \"l2\": %zu, \"l3\": %zu}, "
      "\"block\": {\"mc\": %zu, \"kc\": %zu, \"nc\": %zu}, "
      "\"gemm_threads\": %zu, \"serve_workers\": %zu, \"build_type\": \"%s\", "
      "\"source_sha\": \"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      gemm_internal::MicroKernelIsAvx2() ? "true" : "false", cache.l1d_bytes,
      cache.l2_bytes, cache.l3_bytes, block.mc, block.kc, block.nc,
      GemmThreads(), serve_workers, PERFBENCH_BUILD_TYPE,
      args.source_sha.c_str());
  return buf;
}

// GEMM ceiling at one of the workloads' own product shapes: the median
// per-call rate of Gemm over ~50 ms.
double CeilingGflops(size_t m, size_t k, size_t n) {
  Rng rng(m * 131 + k * 7 + n);
  Matrix a(m, k), b(k, n), c(m, n);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.NextUniform(-1, 1);
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.NextUniform(-1, 1);
  for (int i = 0; i < 3; ++i) Gemm(a, b, &c);
  std::vector<double> rates;
  const int64_t until = NowNs() + 50'000'000;
  while (NowNs() < until || rates.size() < 5) {
    const int64_t t0 = NowNs();
    Gemm(a, b, &c);
    rates.push_back(2.0 * m * k * n / SecondsBetween(t0, NowNs()) * 1e-9);
  }
  return Median(rates);
}

struct Shape {
  const char* name;
  size_t m, k, n;
};
// Minibatch (20), stochastic (1) and a full serve micro-batch (8).
constexpr Shape kCeilingShapes[] = {
    {"20x784x1000", 20, 784, 1000}, {"20x1000x1000", 20, 1000, 1000},
    {"1x784x1000", 1, 784, 1000},   {"1x1000x1000", 1, 1000, 1000},
    {"8x1000x1000", 8, 1000, 1000},
};

int Run(const Args& args) {
  const bool minibatch = args.workload != "train-stochastic";
  const bool serve_heavy = args.workload == "serve-open-loop";
  const size_t width = args.tiny ? 64 : 1000;
  const size_t scale = args.tiny ? 50 : 5;
  const double capacity_rps = args.tiny ? 1000.0 : 6000.0;
  const double r = args.seconds;

  // Rounds grow with the run length; the serve workload trains lightly.
  TrainSetting setting;
  if (minibatch) {
    setting = {20, 200, 2, 4, 0};
    setting.rounds = 4 + static_cast<size_t>(std::ceil((serve_heavy ? 0.2 : 0.4) * r));
  } else {
    setting = {1, 100, 5, 2, 0};
    setting.rounds = 2 + static_cast<size_t>(std::ceil(0.16 * r));
  }
  // Offered rates: a short warm-up, then 25/50/75% of the nominal serving
  // capacity and one step at 150% whose backlog must grow, so the goodput
  // boundary stays sharp. That step is short, so even a host running at a
  // third of its capacity queues it without shedding or expiring requests.
  // Durations are shares of the run.
  ServeSetting serve;
  serve.p99_limit_ms = 50.0;
  serve.warmup_steps = 1;
  serve.nominal = 2;
  const double fractions[] = {0.25, 0.25, 0.5, 0.75, 1.5};
  const double heavy_share[] = {0.02, 0.06, 0.32, 0.08, 0.02};
  const double light_share[] = {0.01, 0.02, 0.2, 0.03, 0.02};
  for (size_t i = 0; i < std::size(fractions); ++i) {
    serve.ladder.push_back({fractions[i] * capacity_rps,
                            (serve_heavy ? heavy_share : light_share)[i] * r});
  }

  std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu}\n",
              HostJson(args, serve.workers).c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  std::fflush(stdout);

  Report report;
  const int64_t start_ns = NowNs();
  // Set-up runs several times; the median is the set-up time, the last
  // copy is used.
  std::vector<double> setup_s;
  TrainInputs inputs;
  const int setups = args.tiny ? 2 : 5;
  for (int i = 0; i < setups; ++i) {
    const int64_t t0 = NowNs();
    inputs = SetUpTraining(setting, width, scale, args.seed);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
  }

  TrainResult train = RunTraining(&inputs, setting, args.trace, &report);
  ServeResult served = RunServing(serve, *train.model_a, *train.model_b,
                                  inputs.data.test.features(),
                                  inputs.data.test.labels(), args.seed,
                                  args.trace, &report);

  const uint64_t attempted = train.attempted + served.attempted;
  const uint64_t failed = train.failed + served.failed;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ok_frac",
               1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
               "fraction");
  } else {
    for (const Shape& s : kCeilingShapes) {
      report.Add(std::string("tensor.ceiling_gflops.") + s.name,
                 CeilingGflops(s.m, s.k, s.n), "GFLOP/s");
    }
    // Traced over untraced; 0 when a run too short to hold both was made.
    const double traced = serve_heavy ? served.traced_p50_ms : train.traced_s_per_step;
    const double untraced =
        serve_heavy ? served.untraced_p50_ms : train.untraced_s_per_step;
    report.Add("trace.overhead_frac",
               traced > 0.0 && untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
               "fraction");
    for (const auto& [name, n] : Tracer::Get().Summary()) {
      std::fprintf(stderr, "span %-24s count %8llu total %9.4f s self %9.4f s\n",
                   name.c_str(), static_cast<unsigned long long>(n.count),
                   n.total_s, n.self_s);
    }
    if (!args.trace_out.empty() && !Tracer::Get().WriteJson(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  std::vector<std::string> errors = train.errors;
  errors.insert(errors.end(), served.errors.begin(), served.errors.end());
  for (const std::string& e : errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  std::fprintf(stderr, "run took %.1f s\n", SecondsBetween(start_ns, NowNs()));
  std::printf("%s\n", report.ResultJson(train.correct && served.correct,
                                        attempted, failed)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
