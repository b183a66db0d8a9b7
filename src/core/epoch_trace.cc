#include "core/epoch_trace.hh"

#include <cinttypes>
#include <cstdio>

namespace smthill
{

namespace
{

Json
doubleArray(const std::array<double, kMaxThreads> &a, int nt)
{
    Json arr = Json::array();
    for (int i = 0; i < nt; ++i)
        arr.push(Json(a[i]));
    return arr;
}

Json
shareArray(const Partition &p)
{
    Json arr = Json::array();
    for (int i = 0; i < p.numThreads; ++i)
        arr.push(Json(p.share[i]));
    return arr;
}

void
parseDoubleArray(const Json &j, std::array<double, kMaxThreads> &out)
{
    int i = 0;
    for (const Json &v : j.items()) {
        if (i >= kMaxThreads)
            break;
        out[i++] = v.asDouble();
    }
}

Partition
parseShareArray(const Json &j)
{
    Partition p;
    for (const Json &v : j.items()) {
        if (p.numThreads >= kMaxThreads)
            break;
        p.share[p.numThreads++] = static_cast<int>(v.asInt());
    }
    return p;
}

} // namespace

Json
epochRecordJson(const EpochTraceRecord &r)
{
    Json e = Json::object();
    e.set("epoch", Json(r.epochId));
    e.set("cycle", Json(r.cycle));
    e.set("elapsed_cycles", Json(r.elapsedCycles));
    e.set("ipc", doubleArray(r.ipc, r.numThreads));
    e.set("metric_value", Json(r.metricValue));
    e.set("trial", r.partitioned ? shareArray(r.trial) : Json());
    e.set("anchor", shareArray(r.anchor));
    e.set("round_perf", doubleArray(r.roundPerf, r.numThreads));
    e.set("single_ipc_est", doubleArray(r.singleIpcEst, r.numThreads));
    e.set("gradient_thread", Json(r.gradientThread));
    e.set("sampling_thread", Json(r.samplingThread));
    e.set("anchor_moved", Json(r.anchorMoved));
    e.set("software_cost", Json(r.softwareCost));
    return e;
}

EpochTraceRecord
epochRecordFromJson(const Json &e)
{
    EpochTraceRecord r;
    r.epochId = static_cast<std::uint64_t>(e.at("epoch").asInt());
    r.cycle = static_cast<Cycle>(e.at("cycle").asInt());
    r.elapsedCycles = static_cast<Cycle>(e.at("elapsed_cycles").asInt());
    r.numThreads = static_cast<int>(e.at("ipc").size());
    parseDoubleArray(e.at("ipc"), r.ipc);
    r.metricValue = e.at("metric_value").asDouble();
    if (!e.at("trial").isNull()) {
        r.partitioned = true;
        r.trial = parseShareArray(e.at("trial"));
    }
    r.anchor = parseShareArray(e.at("anchor"));
    parseDoubleArray(e.at("round_perf"), r.roundPerf);
    parseDoubleArray(e.at("single_ipc_est"), r.singleIpcEst);
    r.gradientThread = static_cast<int>(e.at("gradient_thread").asInt());
    r.samplingThread = static_cast<int>(e.at("sampling_thread").asInt());
    r.anchorMoved = e.at("anchor_moved").asBool();
    r.softwareCost = static_cast<Cycle>(e.at("software_cost").asInt());
    return r;
}

std::vector<EpochTraceRecord>
epochRecords(const std::vector<SimEvent> &events, int pid)
{
    std::vector<EpochTraceRecord> recs;
    for (const SimEvent &e : events)
        if (e.ph == 'X' && e.cat == "epoch" && e.name == "epoch" &&
            e.pid == pid)
            recs.push_back(epochRecordFromJson(e.args));
    return recs;
}

Json
epochTraceToJson(const std::vector<EpochTraceRecord> &recs,
                 PerfMetric metric)
{
    Json root = Json::object();
    root.set("schema", Json("smthill.epoch-trace.v1"));
    root.set("metric", Json(metricName(metric)));
    root.set("num_threads",
             Json(recs.empty() ? 0 : recs.front().numThreads));
    Json epochs = Json::array();
    for (const EpochTraceRecord &r : recs)
        epochs.push(epochRecordJson(r));
    root.set("epochs", std::move(epochs));
    return root;
}

std::string
epochTraceToCsv(const std::vector<EpochTraceRecord> &recs)
{
    int nt = recs.empty() ? 0 : recs.front().numThreads;
    std::string out = "epoch,cycle,elapsed_cycles,metric_value,"
                      "gradient_thread,sampling_thread,anchor_moved,"
                      "software_cost";
    auto perThread = [&](const char *stem) {
        for (int i = 0; i < nt; ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), ",%s_%d", stem, i);
            out += buf;
        }
    };
    perThread("ipc");
    perThread("trial");
    perThread("anchor");
    perThread("round_perf");
    perThread("single_ipc_est");
    out += '\n';

    char buf[64];
    for (const EpochTraceRecord &r : recs) {
        std::snprintf(buf, sizeof(buf),
                      "%" PRIu64 ",%" PRIu64 ",%" PRIu64, r.epochId,
                      r.cycle, r.elapsedCycles);
        out += buf;
        std::snprintf(buf, sizeof(buf), ",%.6f,%d,%d,%d,%" PRIu64,
                      r.metricValue, r.gradientThread, r.samplingThread,
                      r.anchorMoved ? 1 : 0, r.softwareCost);
        out += buf;
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%.6f", r.ipc[i]);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%d",
                          r.partitioned ? r.trial.share[i] : -1);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%d", r.anchor.share[i]);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%.6f", r.roundPerf[i]);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%.6f", r.singleIpcEst[i]);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

bool
epochTraceFromJson(const Json &j, std::vector<EpochTraceRecord> &out,
                   std::string &error)
{
    out.clear();
    if (!j.isObject() || !j.contains("schema") ||
        j.at("schema").asString() != "smthill.epoch-trace.v1") {
        error = "not a smthill.epoch-trace.v1 document";
        return false;
    }
    for (const Json &e : j.at("epochs").items())
        out.push_back(epochRecordFromJson(e));
    return true;
}

} // namespace smthill
