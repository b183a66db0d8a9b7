#include "common/stat_snapshot.hh"

#include <ostream>
#include <sstream>

namespace smthill
{

StatSnapshotter::StatSnapshotter(StatRegistry &reg) : registry(reg) {}

void
StatSnapshotter::streamTo(std::ostream *s)
{
    std::lock_guard<std::mutex> lock(mutex);
    sink = s;
    if (sink)
        *sink << headerLine() << '\n';
}

Json
StatSnapshotter::sample(std::uint64_t epoch, std::uint64_t cycle)
{
    std::lock_guard<std::mutex> lock(mutex);
    Json row = Json::object();
    row.set("seq", Json(seq++));
    row.set("epoch", Json(epoch));
    row.set("cycle", Json(cycle));

    // Counters: only the ones that moved since the previous row, as
    // deltas. A counter that shrank (resetValues between samples)
    // re-baselines at its current value.
    Json counters = Json::object();
    for (const auto &[name, value] : registry.counterValues()) {
        auto it = lastCounters.find(name);
        const std::uint64_t prev =
            it == lastCounters.end() ? 0 : it->second;
        const std::uint64_t delta = value >= prev ? value - prev : value;
        if (delta != 0)
            counters.set(name, Json(delta));
        lastCounters[name] = value;
    }
    row.set("counters", std::move(counters));

    // Gauges are levels, not rates: report current values as-is.
    Json gauges = Json::object();
    for (const auto &[name, value] : registry.gaugeValues())
        gauges.set(name, Json(value));
    row.set("gauges", std::move(gauges));

    rowsStore.push_back(row);
    if (sink)
        *sink << row.dump() << '\n';
    return row;
}

std::vector<Json>
StatSnapshotter::rows() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return rowsStore;
}

std::string
StatSnapshotter::toJsonl() const
{
    return rowsToJsonl(rows());
}

std::string
StatSnapshotter::headerLine()
{
    Json header = Json::object();
    header.set("schema", Json("smthill.snapshots.v1"));
    return header.dump();
}

std::string
StatSnapshotter::rowsToJsonl(const std::vector<Json> &rows)
{
    std::ostringstream out;
    out << headerLine() << '\n';
    for (const Json &row : rows)
        out << row.dump() << '\n';
    return out.str();
}

bool
StatSnapshotter::fromJsonlText(const std::string &text,
                               std::vector<Json> &rows_out,
                               std::string &error)
{
    rows_out.clear();
    error.clear();
    std::istringstream in(text);
    std::string line;
    bool sawHeader = false;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        Json j;
        std::string parseError;
        if (!Json::parse(line, j, parseError)) {
            error = "line " + std::to_string(lineNo) + ": " + parseError;
            return false;
        }
        if (!sawHeader) {
            if (!j.isObject() || !j.contains("schema") ||
                !j.at("schema").isString() ||
                j.at("schema").asString() != "smthill.snapshots.v1") {
                error = "line 1 is not a smthill.snapshots.v1 header";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (!j.isObject() || !j.contains("seq") ||
            !j.contains("epoch") || !j.contains("cycle") ||
            !j.contains("counters") || !j.contains("gauges")) {
            error = "line " + std::to_string(lineNo) +
                    ": row is missing seq/epoch/cycle/counters/gauges";
            return false;
        }
        rows_out.push_back(std::move(j));
    }
    if (!sawHeader) {
        error = "empty snapshot stream (no header line)";
        return false;
    }
    return true;
}

} // namespace smthill
