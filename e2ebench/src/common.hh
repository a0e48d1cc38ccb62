/**
 * @file
 * Shared pieces of the end-to-end benchmark: the run options, the
 * result sink (metrics by name and unit, failed checks), the
 * benchmark's own trace spans, and small numeric helpers.
 */

#ifndef E2EBENCH_COMMON_HH
#define E2EBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/walltime.hh"

namespace e2e {

using laoram::WallClock;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;     ///< private scratch + trace output
    std::string nodeBinary; ///< laoram_node executable
    WallClock::time_point processStart{};
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Collects the run's metrics and the outcome of every output check.
 * A failed check does not stop the run; it makes `correct` false and
 * the process exit code non-zero.
 */
class Result
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record a check; returns @p ok so callers can branch on it. */
    bool check(bool ok, const std::string &what);

    /** Program totals run.py reconciles with the Chrome trace. */
    void reconcile(const std::string &key, double value);

    bool correct() const { return failures.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failedOps = 0;
    std::string traceFile;

    /** Print the metric table and the one-line JSON result. */
    void print() const;

  private:
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, double>> reconciles;
    std::vector<std::string> failures;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Peak resident set of this process, in MiB (VmHWM). */
double peakRssMib();

/** Seconds since @p t. */
inline double
secondsSince(WallClock::time_point t)
{
    return static_cast<double>(laoram::elapsedNs(t)) / 1e9;
}

/**
 * Record a span named @p name around a call the benchmark makes into
 * the program (no-op when tracing is off). Names are "bench-*" so
 * they never collide with the program's own spans.
 */
class BenchSpan
{
  public:
    explicit BenchSpan(const char *name, std::uint64_t arg = ~0ull);
    ~BenchSpan();
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    const char *name;
    std::uint64_t arg;
    std::int64_t startNs;
};

/** SplitMix64 finaliser: the benchmark's own keyed mixing function. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** FNV-1a over @p n bytes. */
std::uint32_t fnv1a(const std::uint8_t *p, std::size_t n);

} // namespace e2e

#endif // E2EBENCH_COMMON_HH
