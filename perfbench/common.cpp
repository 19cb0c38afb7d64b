/**
 * @file
 * Shared plumbing of the repository benchmark.
 */

#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "exec/thread_pool.hpp"
#include "linalg/simd_dispatch.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"goodput_per_s", "1/s"},
    {"recon_err", "mae"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"train.run_epoch_ms", "ms"},
    {"train.snapshot_ms", "ms"},
    {"train.ckpt_write_ms", "ms"},
    {"train.ckpt_bytes", "bytes"},
    {"rbm.halfsweep_ns_per_row", "ns"},
    {"linalg.reduce_us", "us"},
    {"linalg.halfsweep_bytes", "bytes"},
    {"exec.parallel_for_us", "us"},
    {"engine.model_us_per_row", "us"},
    {"engine.rows_per_kernel_batch", "rows"},
    {"engine.requests_per_flush", "count"},
    {"engine.flush_p50_us", "us"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.registry_get_us", "us"},
    {"engine.inproc_us_per_req", "us"},
    {"engine.shadow_p50_us", "us"},
    {"engine.shadows_per_request", "ratio"},
    {"net.decode_ns_per_req", "ns"},
    {"net.encode_ns_per_reply", "ns"},
    {"net.reply_bytes_per_req", "bytes"},
    {"net.outside_engine_p50_ms", "ms"},
    {"net.shed_pct", "%"},
    {"gen.overrun_pct", "%"},
    {"gen.latency_samples", "count"},
    {"gen.p50_ms", "ms"},
    {"gen.p99_ms", "ms"},
    {"trace.setup_s", "s"},
    {"trace.goodput_per_s", "1/s"},
    {"trace.recon_err", "mae"},
    {"trace.peak_rss_mb", "MB"},
};

void
finishMetrics(Result &result, bool traced)
{
    std::vector<Metric> measured = std::move(result.metrics);
    if (traced)
        for (Metric &m : measured)
            for (const MetricSpec &spec : kEndToEndMetrics)
                if (m.name == spec.name)
                    m.name = std::string("trace.") + spec.name;
    result.metrics.clear();
    for (const MetricSpec &spec :
         traced ? kLayerMetrics : kEndToEndMetrics) {
        const auto found = std::find_if(
            measured.begin(), measured.end(),
            [&](const Metric &m) { return m.name == spec.name; });
        result.add(spec.name, found != measured.end() ? found->value : 0.0,
                   spec.unit);
    }
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::fail(const std::string &why)
{
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t drop = values.size() / 4;
    double sum = 0.0;
    for (std::size_t i = drop; i < values.size() - drop; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * drop);
}

double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
    return sorted[index - 1];
}

double
tailQuantile(const std::vector<double> &sorted)
{
    // Nearest rank k (1-based) leaves n - k samples above it; keep at
    // least ten there, and never go past the 99th percentile.
    const std::size_t n = sorted.size();
    if (n == 0)
        return 0.0;
    const std::size_t p99 = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(n)));
    const std::size_t k =
        n > 10 ? std::min(p99, n - 10) : (n + 1) / 2;
    return sorted[std::max<std::size_t>(k, 1) - 1];
}

double
peakRssMb()
{
    rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
secondsPerCall(double minSec, const std::function<void()> &fn)
{
    fn();  // warm caches and lazily sized scratch
    // Size a batch to ~1/20 of the budget, then time batches.
    std::size_t batch = 1;
    for (;;) {
        const double start = nowSec();
        for (std::size_t i = 0; i < batch; ++i)
            fn();
        if (nowSec() - start >= minSec / 20 || batch >= (1u << 24))
            break;
        batch *= 2;
    }
    std::vector<double> perCall;
    const double begin = nowSec();
    while (perCall.size() < 5 || nowSec() - begin < minSec) {
        const double start = nowSec();
        for (std::size_t i = 0; i < batch; ++i)
            fn();
        perCall.push_back((nowSec() - start) /
                          static_cast<double>(batch));
    }
    return median(perCall);
}

std::uint64_t
fnv1a(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint32_t
Tracer::record(const char *name, double start, double end,
               std::uint32_t parent, std::uint64_t request)
{
    if (!enabled_)
        return 0;
    spans_.push_back({name, start, end, parent, request});
    return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t
Tracer::begin(const char *name, std::uint32_t parent)
{
    const double now = nowSec();
    return record(name, now, now, parent);
}

void
Tracer::end(std::uint32_t id)
{
    if (id != 0)
        spans_[id - 1].end = nowSec();
}

bool
Tracer::write(const std::string &path) const
{
    if (!enabled_ || path.empty())
        return true;
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                     "\"end_us\": %.3f, \"parent\": %u, \"request\": "
                     "%llu}\n",
                     i + 1, s.name, (s.start - origin) * 1e6,
                     (s.end - origin) * 1e6, s.parent,
                     static_cast<unsigned long long>(s.request));
    }
    return std::fclose(out) == 0;
}

namespace {

bool
pinning()
{
    return ::sysconf(_SC_NPROCESSORS_ONLN) >= 4;
}

void
pinTo(std::initializer_list<int> cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);  // 0: the calling thread
}

} // namespace

void
placeThreads()
{
    if (!pinning())
        return;
    pinTo({0, 1});
    ising::exec::globalPool();  // workers inherit CPUs 0-1
    pinTo({kMainCpu});
}

void
pinCurrentThread(int cpu)
{
    if (pinning())
        pinTo({cpu});
}

namespace {

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out + "\"";
}

} // namespace

void
stampHost(Result &result, std::size_t engineWorkers,
          std::size_t connections)
{
    namespace simd = ising::linalg::simd;
    result.meta = {
        {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
        {"cpu", cpuModel()},
        {"isa_tier", simd::tierName(simd::defaultTier())},
        {"native_build", ISINGRBM_NATIVE_BUILD ? "on" : "off"},
        {"engine_workers", std::to_string(engineWorkers)},
        {"connections", std::to_string(connections)},
    };
}

void
printResult(const Result &result)
{
    std::string meta = "# meta {";
    for (std::size_t i = 0; i < result.meta.size(); ++i)
        meta += (i ? ", " : "") + jsonString(result.meta[i].first) + ": " +
                jsonString(result.meta[i].second);
    std::printf("%s}\n", meta.c_str());

    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.10g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                value + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
