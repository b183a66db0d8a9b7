#include "harness/artifacts.hh"

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
writeProfile(const std::string &path, const prof::ProfileReport &report)
{
    Json reloaded = writeAndReloadJson(path, prof::profileToJson(report));
    prof::ProfileReport back;
    std::string error;
    if (!prof::profileFromJson(reloaded, back, error))
        fatal(msg("profile export '", path, "' does not reload: ", error));
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
