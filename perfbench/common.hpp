/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * line, quantiles, peak memory, the span recorder and the host stamp.
 *
 * The benchmark prints, as the last line of stdout, one JSON object
 * {"correct", "attempted", "failed", "metrics"}; the line before it is
 * a "# meta {...}" stamp naming the host and the thread budget, so
 * numbers from different hosts are never compared by accident.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line options (see main.cpp). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;    ///< measuring budget of one run
    bool trace = false;       ///< per-layer run (spans + probes)
    std::string workDir;      ///< scratch for archives (removed at exit)
    std::string traceOut;     ///< span dump of a traced run
};

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct Result
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** Host and budget facts for the meta line. */
    std::vector<std::pair<std::string, std::string>> meta;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Count one failed check (logged to stderr). */
    void fail(const std::string &why);
};

/** A metric name with its unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every untraced run. */
extern const std::vector<MetricSpec> kEndToEndMetrics;

/**
 * Per-layer metrics, reported by every traced run: the probes and
 * counters below plus "trace.<name>" for each end-to-end metric (the
 * traced run's own end-to-end numbers, so tracing overhead shows).  A
 * layer the workload leaves idle reports 0.
 */
extern const std::vector<MetricSpec> kLayerMetrics;

/**
 * Shape @p result for its run kind: untraced runs keep exactly the
 * end-to-end metrics; traced runs rename them to "trace.<name>", add
 * 0 for every idle layer and keep exactly kLayerMetrics.
 */
void finishMetrics(Result &result, bool traced);

/** Steady-clock seconds (arbitrary origin). */
double nowSec();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Mean of the middle half of @p values (the lowest and highest quarter
 * dropped): robust to bursts like a median, but not confined to the
 * values' own granularity.  0 when empty.
 */
double interquartileMean(std::vector<double> values);

/** Nearest-rank quantile of ascending @p sorted (0 when empty). */
double quantile(const std::vector<double> &sorted, double q);

/**
 * The tail the benchmark reports: the value at the highest percentile,
 * at most the 99th, that still has at least ten samples above it.
 * With fewer than 1000 samples that percentile is lower than p99.
 */
double tailQuantile(const std::vector<double> &sorted);

/** Peak resident set of this process in MB. */
double peakRssMb();

/**
 * Median seconds per call of @p fn: batches of calls are timed until
 * @p minSec has passed (at least five batches).
 */
double secondsPerCall(double minSec, const std::function<void()> &fn);

/** FNV-1a digest of a byte range. */
std::uint64_t fnv1a(const void *data, std::size_t size);

/**
 * In-memory span recorder for traced runs: name, start, end, parent
 * span and request id.  Disabled recorders ignore every call, so the
 * untraced runs pay one branch per would-be span.  Spans are written
 * as JSON lines when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint32_t record(const char *name, double start, double end,
                         std::uint32_t parent = 0,
                         std::uint64_t request = 0);

    /** Open a span ending at end(); returns its id (0 when disabled). */
    std::uint32_t begin(const char *name, std::uint32_t parent = 0);
    void end(std::uint32_t id);

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double start, end;
        std::uint32_t parent;
        std::uint64_t request;
    };
    bool enabled_;
    std::vector<Span> spans_;
};

/**
 * Thread placement on a host with at least four CPUs: the engine pool
 * on CPUs 0-1, the serving loop on kLoopCpu, the main thread (load
 * generator or training loop) on kMainCpu.  Fewer CPUs: no pinning.
 */
constexpr int kLoopCpu = 2;
constexpr int kMainCpu = 3;

/** Create the global pool on CPUs 0-1, then move the caller to
 *  kMainCpu.  Call before anything touches exec::globalPool(). */
void placeThreads();

/** Pin the calling thread to @p cpu (no-op below four CPUs). */
void pinCurrentThread(int cpu);

/** Fill the host/budget stamp every result carries. */
void stampHost(Result &result, std::size_t engineWorkers,
               std::size_t connections);

/** Print the meta line and then the result line to stdout. */
void printResult(const Result &result);

/** Workload entry points (train.cpp, serve.cpp). */
void runTrain(const Options &options, Result &result, Tracer &tracer);
void runServe(const Options &options, Result &result, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
