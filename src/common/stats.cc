#include "common/stats.hh"

#include <iomanip>
#include <sstream>


namespace dfi
{

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &entry : other.counters_)
        counters_[entry.first] += entry.second;
}

bool
StatSet::has(const std::string &name) const
{
    return counters_.count(name) != 0;
}

double
StatSet::ratio(const std::string &num, const std::string &den) const
{
    const std::uint64_t d = get(den);
    if (d == 0)
        return 0.0;
    return static_cast<double>(get(num)) / static_cast<double>(d);
}

void
StatSet::clear()
{
    for (auto &entry : counters_)
        entry.second = 0;
}

std::string
StatSet::dump(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[name, value] : counters_)
        os << prefix << name << " = " << value << "\n";
    return os.str();
}

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths;
    auto update_widths = [&](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    update_widths(header_);
    for (const auto &r : rows_)
        update_widths(r);

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << cells[i];
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : rows_)
        emit(r);
    return os.str();
}

json::Value
TextTable::toJson() const
{
    auto cells_json = [](const std::vector<std::string> &cells) {
        json::Value row = json::Value::array();
        for (const std::string &cell : cells)
            row.push(json::Value::string(cell));
        return row;
    };
    json::Value doc = json::Value::object();
    doc.set("header", cells_json(header_));
    json::Value rows = json::Value::array();
    for (const auto &r : rows_)
        rows.push(cells_json(r));
    doc.set("rows", std::move(rows));
    return doc;
}

std::string
formatFixed(double value, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << value;
    return os.str();
}

} // namespace dfi
