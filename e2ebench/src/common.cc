#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/trace.hh"

namespace e2e {

namespace {

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    check(std::isfinite(value), "metric " + name + " is finite");
    metrics.push_back({name, value, unit});
}

bool
Result::check(bool ok, const std::string &what)
{
    if (!ok) {
        failures.push_back(what);
        std::cerr << "CHECK FAILED: " << what << std::endl;
    }
    return ok;
}

void
Result::reconcile(const std::string &key, double value)
{
    reconciles.emplace_back(key, value);
}

void
Result::print() const
{
    for (const Metric &m : metrics)
        std::cout << "metric " << m.name << " = " << jsonNumber(m.value)
                  << " " << m.unit << "\n";
    std::ostringstream js;
    js << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failedOps << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    js << "}, \"reconcile\": {";
    for (std::size_t i = 0; i < reconciles.size(); ++i)
        js << (i ? ", " : "") << jsonString(reconciles[i].first) << ": "
           << jsonNumber(reconciles[i].second);
    js << "}, \"trace_file\": " << jsonString(traceFile)
       << ", \"check_failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        js << (i ? ", " : "") << jsonString(failures[i]);
    js << "]}";
    std::cout << js.str() << std::endl;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kib = 0.0;
            is >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

BenchSpan::BenchSpan(const char *name, std::uint64_t arg)
    : name(name), arg(arg),
      startNs(laoram::obs::tracingEnabled() ? laoram::obs::traceNowNs()
                                            : -1)
{
}

BenchSpan::~BenchSpan()
{
    if (startNs >= 0)
        laoram::obs::traceRecord(
            name, startNs, laoram::obs::traceNowNs() - startNs, arg);
}

std::uint32_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t h = 2166136261u;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 16777619u;
    }
    return h;
}

} // namespace e2e
