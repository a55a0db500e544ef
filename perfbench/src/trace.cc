#include "trace.hh"

#include <algorithm>
#include <string_view>

#include "common/json.hh"
#include "common/logging.hh"

namespace perfbench
{

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::int64_t
Tracer::begin(const std::string &name, std::int64_t parent,
              std::uint64_t request)
{
    const double start = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, start, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::end(std::int64_t id)
{
    const double stop = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end = stop;
}

std::int64_t
Tracer::add(const std::string &name, double start, double end,
            std::int64_t parent, std::uint64_t request)
{
    if (end < start)
        dfi::panic("trace: span %s ends before it starts", name);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double cur_start = 0.0, cur_end = 0.0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (end <= start)
            continue;
        if (open && start <= cur_end) {
            cur_end = std::max(cur_end, end);
            continue;
        }
        if (open)
            total += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
        open = true;
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

namespace
{

/** Children lists and the subtree membership of `root`. */
struct SpanTree
{
    std::vector<std::vector<std::size_t>> children;
    std::vector<bool> inSubtree;

    SpanTree(const std::vector<Span> &spans, std::int64_t root)
        : children(spans.size()), inSubtree(spans.size(), false)
    {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent >= 0)
                children.at(static_cast<std::size_t>(spans[i].parent))
                    .push_back(i);
        }
        if (root < 0)
            return;
        std::vector<std::size_t> stack{static_cast<std::size_t>(root)};
        while (!stack.empty()) {
            const std::size_t at = stack.back();
            stack.pop_back();
            inSubtree[at] = true;
            for (const std::size_t child : children[at])
                stack.push_back(child);
        }
    }
};

/** The part of span `at` that its children cover. */
double
childCoverage(const std::vector<Span> &spans, const SpanTree &tree,
              std::size_t at)
{
    std::vector<std::pair<double, double>> covered;
    for (const std::size_t child : tree.children[at]) {
        covered.emplace_back(std::max(spans[child].start, spans[at].start),
                             std::min(spans[child].end, spans[at].end));
    }
    return unionLength(std::move(covered));
}

/**
 * Append the parts of span `at`, clipped to [lo, hi), that none of its
 * children cover: the span's self-time intervals.
 */
void
selfIntervals(const std::vector<Span> &spans, const SpanTree &tree,
              std::size_t at, double lo, double hi,
              std::vector<std::pair<double, double>> &out)
{
    const double start = std::max(spans[at].start, lo);
    const double end = std::min(spans[at].end, hi);
    std::vector<std::pair<double, double>> children;
    for (const std::size_t child : tree.children[at])
        children.emplace_back(spans[child].start, spans[child].end);
    std::sort(children.begin(), children.end());
    double cursor = start;
    for (const auto &[child_start, child_end] : children) {
        if (child_start > cursor)
            out.emplace_back(cursor, std::min(child_start, end));
        cursor = std::max(cursor, child_end);
        if (cursor >= end)
            return;
    }
    if (cursor < end)
        out.emplace_back(cursor, end);
}

} // namespace

std::map<std::string, double>
Tracer::selfTimes() const
{
    const std::vector<Span> all = spans();
    const SpanTree tree(all, -1);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        self[all[i].name] += (all[i].end - all[i].start) -
                             childCoverage(all, tree, i);
    }
    return self;
}

bool
isLayerSpan(const std::string &name)
{
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos)
        return false;
    const std::string_view layer(name.data(), dot);
    for (const std::string_view known :
         {"prog", "isa", "inject", "uarch", "storage", "service"}) {
        if (layer == known)
            return true;
    }
    return false;
}

double
Tracer::unaccountedFrac(std::int64_t root) const
{
    const std::vector<Span> all = spans();
    const SpanTree tree(all, root);
    const Span &top = all.at(static_cast<std::size_t>(root));
    const double wall = top.end - top.start;
    if (wall <= 0.0)
        return 0.0;
    std::vector<std::pair<double, double>> covered;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (tree.inSubtree[i] && isLayerSpan(all[i].name))
            selfIntervals(all, tree, i, top.start, top.end, covered);
    }
    return 1.0 - unionLength(std::move(covered)) / wall;
}

std::string
Tracer::toJson() const
{
    using dfi::json::Value;
    Value list = Value::array();
    for (const Span &span : spans()) {
        Value item = Value::object();
        item.set("name", Value::string(span.name));
        item.set("start_s", Value::number(span.start));
        item.set("end_s", Value::number(span.end));
        item.set("parent", Value::integer(span.parent));
        item.set("request", Value::unsignedInt(span.request));
        list.push(std::move(item));
    }
    Value doc = Value::object();
    doc.set("spans", std::move(list));
    return doc.dump();
}

} // namespace perfbench
