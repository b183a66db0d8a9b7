#include "common/profile.hh"

// The one sanctioned host-clock user in the tree: the no-wall-clock
// lint rule carves out exactly this file (see lint/lint.cc), the way
// common/log.cc is the one sanctioned `exit` caller. Host time read
// here is telemetry only and never reaches simulator state.
#include <chrono>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>

#include "common/event_trace.hh"

namespace smthill::prof
{

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Per-name aggregate on one thread. */
struct Agg
{
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t self = 0;
    std::uint64_t max = 0;
};

/** Open span on a thread's stack. */
struct Frame
{
    const char *name;
    std::uint64_t start;
    std::uint64_t childNs;
};

/** One completed span instance (Perfetto host track). */
struct Instance
{
    const char *name;
    std::uint64_t start;
    std::uint64_t dur;
};

/**
 * Bounded per-thread timeline: the aggregate counters above never
 * drop data, but the instance timeline keeps only the first
 * kTimelineCap completions per thread so a long run cannot grow
 * memory without bound.
 */
constexpr std::size_t kTimelineCap = 64 * 1024;

struct ThreadData
{
    int index = 0;

    /** Owner-thread only; never touched by report(). */
    std::vector<Frame> stack;

    /** Guards agg/timeline against a concurrent report()/reset(). */
    std::mutex mutex;
    std::map<std::string, Agg> agg;
    std::vector<Instance> timeline;
    std::uint64_t timelineDropped = 0;
};

struct Registry
{
    std::mutex mutex;
    // Deque: ThreadData holds a mutex and must never relocate; slots
    // outlive their threads so report() after join still sees them.
    std::deque<ThreadData> threads;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadData &
localData()
{
    thread_local ThreadData *td = [] {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        ThreadData &d = r.threads.emplace_back();
        d.index = static_cast<int>(r.threads.size()) - 1;
        return &d;
    }();
    return *td;
}

bool
envProfilingEnabled()
{
    const char *v = std::getenv("SMTHILL_PROFILE");
    if (!v)
        return false;
    const std::string s(v);
    return s == "1" || s == "ON" || s == "on" || s == "true" ||
           s == "TRUE";
}

Json
spanToJson(const SpanStats &s)
{
    Json j = Json::object();
    j.set("name", Json(s.name));
    j.set("count", Json(s.count));
    j.set("total_ns", Json(s.totalNs));
    j.set("self_ns", Json(s.selfNs));
    j.set("max_ns", Json(s.maxNs));
    return j;
}

bool
spanFromJson(const Json &j, SpanStats &out, std::string &error)
{
    if (!j.isObject() || !j.contains("name") || !j.contains("count") ||
        !j.contains("total_ns") || !j.contains("self_ns") ||
        !j.contains("max_ns")) {
        error = "span entry is not a {name, count, total_ns, self_ns, "
                "max_ns} object";
        return false;
    }
    out.name = j.at("name").asString();
    out.count = static_cast<std::uint64_t>(j.at("count").asInt());
    out.totalNs = static_cast<std::uint64_t>(j.at("total_ns").asInt());
    out.selfNs = static_cast<std::uint64_t>(j.at("self_ns").asInt());
    out.maxNs = static_cast<std::uint64_t>(j.at("max_ns").asInt());
    return true;
}

} // namespace

namespace detail
{

std::atomic<bool> gProfilingEnabled{envProfilingEnabled()};

void
beginSpan(const char *name)
{
    ThreadData &td = localData();
    td.stack.push_back({name, nowNs(), 0});
}

void
endSpan()
{
    ThreadData &td = localData();
    if (td.stack.empty())
        return; // reset raced a live scope; drop the orphan end
    const Frame f = td.stack.back();
    td.stack.pop_back();
    const std::uint64_t end = nowNs();
    const std::uint64_t dur = end > f.start ? end - f.start : 0;
    const std::uint64_t self = dur > f.childNs ? dur - f.childNs : 0;
    if (!td.stack.empty())
        td.stack.back().childNs += dur;

    std::lock_guard<std::mutex> lock(td.mutex);
    Agg &a = td.agg[f.name];
    ++a.count;
    a.total += dur;
    a.self += self;
    a.max = std::max(a.max, dur);
    if (td.timeline.size() < kTimelineCap)
        td.timeline.push_back({f.name, f.start, dur});
    else
        ++td.timelineDropped;
}

} // namespace detail

bool
profilingEnabled()
{
    return detail::gProfilingEnabled.load(std::memory_order_relaxed);
}

void
setProfilingEnabled(bool on)
{
    detail::gProfilingEnabled.store(on, std::memory_order_relaxed);
}

void
resetProfile()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> rlock(r.mutex);
    for (ThreadData &td : r.threads) {
        std::lock_guard<std::mutex> lock(td.mutex);
        td.agg.clear();
        td.timeline.clear();
        td.timelineDropped = 0;
    }
}

ProfileReport
profileReport()
{
    ProfileReport rep;
    std::map<std::string, Agg> merged;
    std::uint64_t busy = 0;
    std::uint64_t idle = 0;

    Registry &r = registry();
    std::lock_guard<std::mutex> rlock(r.mutex);
    for (ThreadData &td : r.threads) {
        std::lock_guard<std::mutex> lock(td.mutex);
        if (td.agg.empty())
            continue;
        ThreadSpans ts;
        ts.thread = td.index;
        for (const auto &[name, a] : td.agg) {
            ts.spans.push_back({name, a.count, a.total, a.self, a.max});
            Agg &m = merged[name];
            m.count += a.count;
            m.total += a.total;
            m.self += a.self;
            m.max = std::max(m.max, a.max);
            if (name == kWorkerBusySpan)
                busy += a.total;
            else if (name == kWorkerIdleSpan)
                idle += a.total;
        }
        rep.threads.push_back(std::move(ts));
    }
    for (const auto &[name, m] : merged)
        rep.spans.push_back({name, m.count, m.total, m.self, m.max});
    if (busy + idle > 0) {
        rep.parallelEfficiency = static_cast<double>(busy) /
                                 static_cast<double>(busy + idle);
    }
    return rep;
}

Json
profileToJson(const ProfileReport &report)
{
    Json doc = Json::object();
    doc.set("schema", Json("smthill.profile.v1"));
    doc.set("parallel_efficiency", Json(report.parallelEfficiency));
    Json spans = Json::array();
    for (const SpanStats &s : report.spans)
        spans.push(spanToJson(s));
    doc.set("spans", std::move(spans));
    Json threads = Json::array();
    for (const ThreadSpans &t : report.threads) {
        Json tj = Json::object();
        tj.set("thread", Json(t.thread));
        Json tspans = Json::array();
        for (const SpanStats &s : t.spans)
            tspans.push(spanToJson(s));
        tj.set("spans", std::move(tspans));
        threads.push(std::move(tj));
    }
    doc.set("threads", std::move(threads));
    return doc;
}

bool
profileFromJson(const Json &doc, ProfileReport &out, std::string &error)
{
    out = ProfileReport{};
    error.clear();
    if (!doc.isObject() || !doc.contains("schema") ||
        doc.at("schema").asString() != "smthill.profile.v1") {
        error = "not a smthill.profile.v1 document";
        return false;
    }
    if (!doc.contains("parallel_efficiency") || !doc.contains("spans") ||
        !doc.contains("threads") || !doc.at("spans").isArray() ||
        !doc.at("threads").isArray()) {
        error = "missing parallel_efficiency/spans/threads";
        return false;
    }
    out.parallelEfficiency = doc.at("parallel_efficiency").asDouble();
    for (const Json &sj : doc.at("spans").items()) {
        SpanStats s;
        if (!spanFromJson(sj, s, error))
            return false;
        out.spans.push_back(std::move(s));
    }
    for (const Json &tj : doc.at("threads").items()) {
        if (!tj.isObject() || !tj.contains("thread") ||
            !tj.contains("spans") || !tj.at("spans").isArray()) {
            error = "thread entry is not a {thread, spans} object";
            return false;
        }
        ThreadSpans ts;
        ts.thread = static_cast<int>(tj.at("thread").asInt());
        for (const Json &sj : tj.at("spans").items()) {
            SpanStats s;
            if (!spanFromJson(sj, s, error))
                return false;
            ts.spans.push_back(std::move(s));
        }
        out.threads.push_back(std::move(ts));
    }
    return true;
}

void
appendHostSpans(EventTrace &trace, int pid)
{
    struct Slice
    {
        int thread;
        Instance inst;
    };
    std::vector<Slice> slices;
    std::vector<int> threadIds;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> rlock(r.mutex);
        for (ThreadData &td : r.threads) {
            std::lock_guard<std::mutex> lock(td.mutex);
            if (td.timeline.empty())
                continue;
            threadIds.push_back(td.index);
            for (const Instance &inst : td.timeline)
                slices.push_back({td.index, inst});
        }
    }
    if (slices.empty())
        return;

    std::uint64_t base = slices.front().inst.start;
    for (const Slice &s : slices)
        base = std::min(base, s.inst.start);

    trace.processName(pid, "host profiler (steady-clock ns)");
    for (int tid : threadIds)
        trace.threadName(pid, tid, "host-thread-" + std::to_string(tid));
    for (const Slice &s : slices) {
        trace.complete(s.inst.start - base,
                       static_cast<std::int64_t>(s.inst.dur), pid,
                       s.thread, "host", s.inst.name);
    }
}

} // namespace smthill::prof
