#include "serve_phase.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <deque>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "src/lifecycle/request_log.h"
#include "src/registry/model_registry.h"
#include "src/serve/inference_service.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace sampnn;

namespace {

// Nominal-rate latency is summarized per half-second window; the reported
// p50/p99 are medians over windows, and tracing alternates by window.
constexpr int64_t kWindowNs = 500'000'000;
constexpr const char* kTenants[] = {"interactive", "batch"};

struct Request {
  int64_t due_ns = 0;  // absolute once its step starts
  int64_t offset_ns = 0;
  int64_t submit_ns = 0, submitted_ns = 0, done_ns = 0;
  uint32_t row = 0;
  uint32_t step = 0;
  uint8_t tenant = 0;
  bool traced = false;
  bool ok = false;
  int32_t predicted = -1;
  uint64_t version = 0;
};

// Blocking HTTP/1.0 GET against the loopback introspection server. Returns
// the response status code, or -1 when the exchange failed.
int HttpGet(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int code = -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string request =
        std::string("GET ") + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      std::string response;
      char buf[16384];
      ssize_t n = 0;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
      if (n == 0 && response.size() > 12 && response.compare(0, 5, "HTTP/") == 0) {
        code = std::atoi(response.c_str() + 9);
      }
    }
  }
  ::close(fd);
  return code;
}

// Runs `fn` on its own thread every `period` until Stop().
class Ticker {
 public:
  Ticker(std::chrono::milliseconds period, std::function<void()> fn)
      : thread_([this, period, fn = std::move(fn)] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
            lock.unlock();
            fn();
            lock.lock();
          }
        }) {}
  ~Ticker() { Stop(); }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // declared last: started after the members it uses
};

HistogramSnapshot Snap(const char* name) {
  return MetricsRegistry::Get().GetHistogram(name).Snapshot();
}

}  // namespace

ServeResult RunServing(const ServeSetting& setting, const Mlp& model_a,
                       const Mlp& model_b, const Matrix& pool,
                       const std::vector<int32_t>& pool_labels, uint64_t seed,
                       bool trace, Report* report) {
  ServeResult result;
  const Mlp* models[2] = {&model_a, &model_b};
  const std::vector<int32_t> offline[2] = {model_a.Predict(pool),
                                           model_b.Predict(pool)};

  // Registry and service. Promotions and the request log mirror their
  // metrics the same way the service does with /statusz on.
  RegistryOptions registry_options;
  registry_options.obs_enabled = [] { return true; };
  std::shared_ptr<ModelRegistry> registry =
      std::move(ModelRegistry::Create(
                    std::shared_ptr<ModelBackend>(MakeDenseBackend(model_b.Clone())),
                    [](Mlp model) -> StatusOr<std::shared_ptr<ModelBackend>> {
                      return std::shared_ptr<ModelBackend>(
                          MakeDenseBackend(std::move(model)));
                    },
                    registry_options))
          .ValueOrDie("registry");
  std::mutex version_mu;
  std::map<uint64_t, int> version_model = {{registry->live_version(), 1}};

  RequestLogOptions log_options;
  log_options.sample_every = 8;
  log_options.obs_enabled = [] { return true; };
  std::shared_ptr<RequestLog> request_log = RequestLog::Create(log_options);

  ServeOptions options;
  options.workers = setting.workers;
  options.max_batch = 8;
  options.queue_capacity = 16384;
  options.default_deadline_ms = 5000;
  options.statusz_port = 0;
  options.tenants = {{kTenants[0], 8192, 3}, {kTenants[1], 8192, 1}};
  options.request_log = request_log;
  std::unique_ptr<InferenceService> service =
      std::move(InferenceService::Create(registry, options)).ValueOrDie("service");
  const int port = service->statusz_port();
  if (port < 0) {
    result.correct = false;
    result.errors.push_back("statusz server did not start");
  }

  // The seeded schedule: Poisson arrivals per rate step, random pool rows,
  // 30% of requests from the weight-3 interactive tenant.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5e77e);
  std::vector<Request> reqs;
  std::vector<size_t> step_end;
  for (size_t s = 0; s < setting.ladder.size(); ++s) {
    const RateStep& step = setting.ladder[s];
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / step.rps;
      if (t >= step.seconds) break;
      Request r;
      r.offset_ns = static_cast<int64_t>(t * 1e9);
      r.row = static_cast<uint32_t>(rng.NextBounded(pool.rows()));
      r.step = static_cast<uint32_t>(s);
      r.tenant = rng.NextDouble() < 0.3 ? 0 : 1;
      reqs.push_back(r);
    }
    step_end.push_back(reqs.size());
  }

  // serve.* histograms, differenced over the nominal step only.
  const char* const kHistograms[] = {
      "serve.phase.queue_ms", "serve.phase.backend_compute_ms",
      "serve.phase.respond_ms", "serve.batch_size"};
  HistogramSnapshot nominal_hist[std::size(kHistograms)];

  // Collector: resolves futures in submission order and stamps completion.
  std::mutex q_mu;
  std::condition_variable q_cv, done_cv;
  std::deque<std::pair<size_t, std::future<InferenceResult>>> inflight;
  bool generator_done = false;
  size_t completed = 0;  // guarded by q_mu
  std::thread collector([&] {
    while (true) {
      std::pair<size_t, std::future<InferenceResult>> item;
      {
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return !inflight.empty() || generator_done; });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      const InferenceResult r = item.second.get();
      Request& req = reqs[item.first];
      req.done_ns = NowNs();
      req.ok = r.status.ok();
      req.predicted = r.predicted;
      req.version = r.model_version;
      if (req.traced) {
        Tracer::Get().Record("serve.request", req.due_ns, req.done_ns,
                             item.first + 1);
      }
      {
        std::lock_guard<std::mutex> lock(q_mu);
        ++completed;
      }
      done_cv.notify_all();
    }
  });

  // Hot swap about once a second, alternating the two models.
  CanaryBatch canary;
  const size_t canary_rows = std::min<size_t>(16, pool.rows());
  canary.inputs = Matrix(canary_rows, pool.cols());
  for (size_t i = 0; i < canary_rows; ++i) {
    std::copy(pool.Row(i).begin(), pool.Row(i).end(),
              canary.inputs.Row(i).begin());
    canary.labels.push_back(pool_labels[i]);
  }
  std::vector<double> promote_ms;
  std::atomic<uint64_t> promote_failures{0};
  int next_model = 0;
  Ticker promoter(std::chrono::milliseconds(1000), [&] {
    const int which = next_model;
    next_model = 1 - next_model;
    const int64_t t0 = NowNs();
    StatusOr<uint64_t> version = [&] {
      ScopedSpan span("registry.promote");
      return registry->Promote(models[which]->Clone(), ModelProvenance{}, canary);
    }();
    promote_ms.push_back(SecondsBetween(t0, NowNs()) * 1e3);
    if (version.ok()) {
      std::lock_guard<std::mutex> lock(version_mu);
      version_model[version.value()] = which;
    } else {
      promote_failures.fetch_add(1);
    }
  });

  // /statusz once a second; in the traced run /metricsz is timed too.
  std::vector<double> scrape_ms;
  std::atomic<uint64_t> scrape_failures{0};
  Ticker scraper(std::chrono::milliseconds(1000), [&] {
    if (HttpGet(port, "/statusz") != 200) scrape_failures.fetch_add(1);
    if (trace) {
      const int64_t t0 = NowNs();
      int code = 0;
      {
        ScopedSpan span("obs.metricsz_scrape");
        code = HttpGet(port, "/metricsz");
      }
      scrape_ms.push_back(SecondsBetween(t0, NowNs()) * 1e3);
      if (code != 200) scrape_failures.fetch_add(1);
    }
  });

  // Generator: one thread, sends each request when it is due.
  std::vector<int64_t> step_start(setting.ladder.size(), 0);
  size_t begin = 0;
  for (size_t s = 0; s < setting.ladder.size(); ++s) {
    if (s == setting.nominal) {
      for (size_t h = 0; h < std::size(kHistograms); ++h) {
        nominal_hist[h] = Snap(kHistograms[h]);
      }
    }
    step_start[s] = NowNs() + 1'000'000;
    int current_window = -1;
    for (size_t i = begin; i < step_end[s]; ++i) {
      Request& r = reqs[i];
      r.due_ns = step_start[s] + r.offset_ns;
      const int window = static_cast<int>(r.offset_ns / kWindowNs);
      if (window != current_window) {
        current_window = window;
        const bool traced = trace && window % 2 == 1;
        SetTelemetryEnabled(traced);
        Tracer::Get().set_enabled(traced);
      }
      r.traced = Tracer::Get().enabled();
      const int64_t now = NowNs();
      if (now < r.due_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(r.due_ns - now));
      }
      const std::span<const float> row = pool.Row(r.row);
      r.submit_ns = NowNs();
      std::future<InferenceResult> future;
      {
        ScopedSpan span("serve.submit", i + 1);
        future = service->Submit(kTenants[r.tenant],
                                 std::vector<float>(row.begin(), row.end()));
      }
      r.submitted_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(q_mu);
        inflight.emplace_back(i, std::move(future));
      }
      q_cv.notify_one();
    }
    SetTelemetryEnabled(false);
    Tracer::Get().set_enabled(false);
    std::unique_lock<std::mutex> lock(q_mu);
    done_cv.wait(lock, [&] { return completed == step_end[s]; });
    if (s == setting.nominal) {
      for (size_t h = 0; h < std::size(kHistograms); ++h) {
        nominal_hist[h] = Snap(kHistograms[h]).DeltaSince(nominal_hist[h]);
      }
    }
    begin = step_end[s];
  }
  promoter.Stop();
  scraper.Stop();
  {
    std::lock_guard<std::mutex> lock(q_mu);
    generator_done = true;
  }
  q_cv.notify_all();
  collector.join();
  const ServeStats stats = service->Stats();
  service->Stop(InferenceService::StopMode::kDrain);

  // Outcomes. A request fails when it was not served OK or when its
  // prediction differs from the offline argmax of the version that served it.
  result.attempted = reqs.size();
  std::vector<uint64_t> step_failed(setting.ladder.size(), 0);
  uint64_t mispredicted = 0;
  for (const Request& r : reqs) {
    bool good = r.ok;
    if (good) {
      const auto it = version_model.find(r.version);
      good = it != version_model.end() &&
             offline[it->second][r.row] == r.predicted;
      mispredicted += good ? 0 : 1;
    }
    if (!good) {
      ++result.failed;
      ++step_failed[r.step];
    }
  }
  if (result.failed > 0) {
    result.errors.push_back(std::to_string(result.failed) +
                            " requests failed, " +
                            std::to_string(mispredicted) + " of them served "
                            "a prediction that differs from offline Predict");
  }
  if (mispredicted > 0) result.correct = false;
  if (promote_failures.load() > 0 || scrape_failures.load() > 0) {
    result.correct = false;
    result.errors.push_back("promotions failed: " +
                            std::to_string(promote_failures.load()) +
                            ", scrapes failed: " +
                            std::to_string(scrape_failures.load()));
  }

  // Latency per step, timed from when each request was due.
  const auto latency_ms = [](const Request& r) {
    return SecondsBetween(r.due_ns, r.done_ns) * 1e3;
  };
  double goodput = 0.0;
  double lowest_within_limit = 0.0;
  std::vector<double> nominal_p50, nominal_p99, traced_p50, untraced_p50;
  begin = 0;
  for (size_t s = 0; s < setting.ladder.size(); ++s) {
    std::vector<double> all, first_half, second_half;
    std::vector<std::vector<double>> windows;
    int64_t last_done = step_start[s];
    size_t within_limit = 0;
    const int64_t half_ns =
        static_cast<int64_t>(setting.ladder[s].seconds * 0.5e9);
    for (size_t i = begin; i < step_end[s]; ++i) {
      const Request& r = reqs[i];
      if (!r.ok) continue;
      const double ms = latency_ms(r);
      all.push_back(ms);
      within_limit += ms <= setting.p99_limit_ms ? 1 : 0;
      (r.offset_ns < half_ns ? first_half : second_half).push_back(ms);
      last_done = std::max(last_done, r.done_ns);
      const size_t w = static_cast<size_t>(r.offset_ns / kWindowNs);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(ms);
    }
    const double achieved =
        static_cast<double>(all.size()) / SecondsBetween(step_start[s], last_done);
    if (s == setting.warmup_steps) {
      lowest_within_limit = achieved * static_cast<double>(within_limit) /
                            std::max<double>(1.0, static_cast<double>(all.size()));
    }
    const bool growing =
        Median(second_half) > 2.0 * Median(first_half) + 2.0;
    const bool pass = step_failed[s] == 0 && !growing &&
                      Quantile(all, 0.99) <= setting.p99_limit_ms;
    if (pass && s >= setting.warmup_steps) goodput = achieved;
    std::fprintf(stderr,
                 "serve step %zu: offered %.0f/s achieved %.1f/s p50 %.3f ms "
                 "p99 %.3f ms failed %llu growing %d -> %s\n",
                 s, setting.ladder[s].rps, achieved, Median(all),
                 Quantile(all, 0.99),
                 static_cast<unsigned long long>(step_failed[s]), growing,
                 pass ? "meets limit" : "misses limit");
    if (s == setting.nominal) {
      for (size_t w = 0; w < windows.size(); ++w) {
        // Skip a final window clipped by the end of the step.
        const double expected = setting.ladder[s].rps * kWindowNs * 1e-9;
        if (static_cast<double>(windows[w].size()) < 0.5 * expected) continue;
        const double p50 = Median(windows[w]);
        const bool traced_window = trace && w % 2 == 1;
        (traced_window ? traced_p50 : untraced_p50).push_back(p50);
        if (!traced_window) {
          nominal_p50.push_back(p50);
          nominal_p99.push_back(Quantile(windows[w], 0.99));
        }
      }
    }
    begin = step_end[s];
  }
  result.traced_p50_ms = Median(traced_p50);
  result.untraced_p50_ms = Median(untraced_p50);

  if (!trace) {
    report->Add("serve.p50_ms", Median(nominal_p50), "ms");
    report->Add("serve.p99_ms", Median(nominal_p99), "ms");
    report->Add("serve.goodput_rps", goodput > 0.0 ? goodput : lowest_within_limit,
                "1/s");
    return result;
  }

  std::vector<double> submit_us, lag_ms;
  for (const Request& r : reqs) {
    submit_us.push_back(SecondsBetween(r.submit_ns, r.submitted_ns) * 1e6);
    lag_ms.push_back(SecondsBetween(r.due_ns, r.submit_ns) * 1e3);
  }
  report->Add("serve.submit_us.p50", Quantile(submit_us, 0.5), "us");
  report->Add("serve.submit_us.p99", Quantile(submit_us, 0.99), "us");
  report->Add("serve.generator_lag_ms", Quantile(lag_ms, 0.99), "ms");
  const char* const kPhaseMetrics[] = {"serve.queue_wait_ms",
                                       "serve.compute_ms", "serve.respond_ms"};
  for (size_t h = 0; h < std::size(kPhaseMetrics); ++h) {
    report->Add(std::string(kPhaseMetrics[h]) + ".p50",
                nominal_hist[h].Quantile(0.5), "ms");
    report->Add(std::string(kPhaseMetrics[h]) + ".p99",
                nominal_hist[h].Quantile(0.99), "ms");
  }
  const HistogramSnapshot& batch = nominal_hist[3];
  report->Add("serve.batch_size_mean",
              batch.count == 0 ? 0.0
                               : static_cast<double>(batch.sum) /
                                     static_cast<double>(batch.count),
              "count");
  const uint64_t served = stats.completed + stats.completed_degraded;
  report->Add("serve.degraded_frac",
              served == 0 ? 0.0
                          : static_cast<double>(stats.completed_degraded) /
                                static_cast<double>(served),
              "fraction");
  report->Add("obs.metricsz_scrape_ms", Median(scrape_ms), "ms");
  report->Add("registry.promote_ms", Median(promote_ms), "ms");
  report->Add("registry.promoted",
              static_cast<double>(registry->stats().promoted), "count");
  const RequestLogStats log = request_log->stats();
  report->Add("lifecycle.log_sampled_frac",
              log.offered == 0 ? 0.0
                               : static_cast<double>(log.sampled) /
                                     static_cast<double>(log.offered),
              "fraction");
  return result;
}

}  // namespace perfbench
