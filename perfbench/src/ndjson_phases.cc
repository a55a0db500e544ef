#include "ndjson_phases.hh"

#include "common/json.hh"
#include "inject/service.hh"

namespace perfbench
{

PhaseSplit
splitPhases(double written, const std::vector<StreamLine> &lines,
            double decoded)
{
    PhaseSplit split;
    split.total = decoded - written;
    double first_progress = -1.0;
    double last_progress = -1.0;
    double response_at = -1.0;
    for (const StreamLine &line : lines) {
        dfi::json::Value parsed;
        std::string error;
        if (!dfi::json::parse(line.text, parsed, error))
            return split;
        const dfi::json::Value *kind = parsed.find("kind");
        if (kind == nullptr || kind->kind() != dfi::json::Kind::String)
            return split;
        if (kind->asString() == dfi::inject::kServiceProgressKind) {
            if (response_at >= 0.0)
                return split; // progress after the terminal line
            if (first_progress < 0.0)
                first_progress = line.at;
            last_progress = line.at;
            ++split.progressLines;
        } else if (kind->asString() ==
                       dfi::inject::kServiceResponseKind &&
                   response_at < 0.0) {
            response_at = line.at;
            split.responseBytes = line.text.size() + 1;
        } else {
            return split;
        }
    }
    if (response_at < 0.0)
        return split;
    if (split.progressLines == 0) {
        split.queue = response_at - written;
        split.response = decoded - response_at;
    } else {
        split.queue = first_progress - written;
        split.execute = last_progress - first_progress;
        split.response = decoded - last_progress;
    }
    split.ok = true;
    return split;
}

} // namespace perfbench
