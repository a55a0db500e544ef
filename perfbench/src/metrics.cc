#include "metrics.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>

#include "common/json.hh"
#include "common/logging.hh"

namespace perfbench
{

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

Percentile
percentile(std::vector<double> samples, unsigned percent)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // Integer ceil(percent * n / 100): no floating-point rank drift.
    std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
    rank = std::clamp<std::size_t>(rank, 1, n);
    out.value = samples[rank - 1];
    out.beyond = n - rank;
    return out;
}

std::size_t
samplesForPercentile(unsigned percent)
{
    std::size_t n = 1;
    while (!percentile(std::vector<double>(n, 0.0), percent).reportable())
        ++n;
    return n;
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name))
        dfi::panic("perfbench: invalid metric name '%s'", name);
    if (!validUnit(unit))
        dfi::panic("perfbench: invalid unit '%s' for %s", unit, name);
    if (!std::isfinite(value))
        dfi::panic("perfbench: metric %s is not finite", name);
    if (find(name) != nullptr)
        dfi::panic("perfbench: metric %s reported twice", name);
    metrics_.push_back(Metric{name, value, unit});
}

const Metric *
MetricSet::find(std::string_view name) const
{
    for (const Metric &metric : metrics_) {
        if (metric.name == name)
            return &metric;
    }
    return nullptr;
}

std::string
formatValue(double value)
{
    char buffer[64];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    if (ec != std::errc())
        dfi::panic("perfbench: cannot format %s", value);
    return std::string(buffer, end);
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricSet &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &metric : metrics.all()) {
        if (!first)
            out += ", ";
        first = false;
        out += dfi::json::quote(metric.name) + ": {\"value\": " +
               formatValue(metric.value) +
               ", \"unit\": " + dfi::json::quote(metric.unit) + "}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
