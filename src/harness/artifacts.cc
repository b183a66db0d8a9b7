#include "harness/artifacts.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/log.hh"
#include "common/stat_registry.hh"

namespace smthill
{

bool
hasExtension(const std::string &path, const std::string &ext)
{
    return path.size() >= ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

void
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out)
        fatal(msg("cannot write '", path, "'"));
}

bool
writeEventTrace(EventTrace &trace, const std::string &path)
{
    SMTHILL_PROF_SCOPE("harness.export");
    if (prof::profilingEnabled())
        prof::appendHostSpans(trace);
    const bool as_jsonl = hasExtension(path, ".jsonl");
    writeTextFile(path, as_jsonl ? trace.toJsonl()
                                 : trace.toPerfettoJson().dump(2) + "\n");
    return as_jsonl;
}

Json
writeAndReloadJson(const std::string &path, const Json &doc)
{
    SMTHILL_PROF_SCOPE("harness.export");
    writeTextFile(path, doc.dump(2) + "\n");
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in)
        fatal(msg("cannot read back '", path, "'"));
    Json reloaded;
    std::string error;
    if (!Json::parse(text, reloaded, error))
        fatal(msg("export '", path, "' does not reparse: ", error));
    return reloaded;
}

void
exportProfile(const std::string &path)
{
    if (!prof::profilingEnabled())
        return;
    prof::ProfileReport report = prof::profileReport();
    if (!path.empty()) {
        Json reloaded =
            writeAndReloadJson(path, prof::profileToJson(report));
        prof::ProfileReport back;
        std::string error;
        if (!prof::profileFromJson(reloaded, back, error))
            fatal(msg("profile export '", path,
                      "' does not reload: ", error));
        std::printf("wrote host profile to %s (%zu spans, "
                    "parallel_efficiency %.3f)\n",
                    path.c_str(), report.spans.size(),
                    report.parallelEfficiency);
        return;
    }
    std::stable_sort(report.spans.begin(), report.spans.end(),
                     [](const prof::SpanStats &a,
                        const prof::SpanStats &b) {
                         return a.totalNs > b.totalNs;
                     });
    std::printf("host profile (parallel_efficiency %.3f):\n",
                report.parallelEfficiency);
    std::printf("  %-28s %10s %12s %12s %12s\n", "span", "count",
                "total_ms", "self_ms", "max_ms");
    for (const prof::SpanStats &s : report.spans)
        std::printf("  %-28s %10llu %12.3f %12.3f %12.3f\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    static_cast<double>(s.totalNs) / 1e6,
                    static_cast<double>(s.selfNs) / 1e6,
                    static_cast<double>(s.maxNs) / 1e6);
}

SnapshotSink::SnapshotSink(const std::string &path)
{
    if (path.empty())
        return;
    out.open(path, std::ios::binary);
    if (!out)
        fatal(msg("cannot write '", path, "'"));
    snap.emplace(globalStats());
    snap->streamTo(&out);
    file = path;
}

SnapshotSink::~SnapshotSink()
{
    close();
}

void
SnapshotSink::sample(std::uint64_t epoch, std::uint64_t cycle)
{
    if (snap)
        snap->sample(epoch, cycle);
}

std::size_t
SnapshotSink::close()
{
    if (!snap)
        return 0;
    snap->streamTo(nullptr);
    const std::size_t rows = snap->rows().size();
    snap.reset();
    if (!out)
        fatal(msg("cannot write '", file, "'"));
    return rows;
}

} // namespace smthill
