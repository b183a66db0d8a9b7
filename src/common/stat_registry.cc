#include "common/stat_registry.hh"

#include "common/log.hh"

namespace smthill
{

StatRegistry::Node &
StatRegistry::lookup(const std::string &name, Kind kind)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(name);
    if (it != index.end()) {
        if (it->second->kind != kind)
            fatal(msg("StatRegistry: '", name,
                      "' already registered with a different kind"));
        return *it->second;
    }
    // Nodes hold atomics (non-movable), so they are constructed in
    // place; deque storage never relocates them.
    Node &node = nodes.emplace_back();
    node.name = name;
    node.kind = kind;
    index.emplace(name, &node);
    return node;
}

StatCounter &
StatRegistry::counter(const std::string &name)
{
    return lookup(name, Kind::Counter).counter;
}

StatGauge &
StatRegistry::gauge(const std::string &name)
{
    return lookup(name, Kind::Gauge).gauge;
}

Json
StatRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex);
    Json out = Json::object();
    for (const Node &node : nodes) {
        switch (node.kind) {
          case Kind::Counter:
            out.set(node.name, Json(node.counter.value()));
            break;
          case Kind::Gauge:
            out.set(node.name, Json(node.gauge.value()));
            break;
        }
    }
    return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatRegistry::counterValues() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const Node &node : nodes) {
        if (node.kind == Kind::Counter)
            out.emplace_back(node.name, node.counter.value());
    }
    return out;
}

std::vector<std::pair<std::string, double>>
StatRegistry::gaugeValues() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::pair<std::string, double>> out;
    for (const Node &node : nodes) {
        if (node.kind == Kind::Gauge)
            out.emplace_back(node.name, node.gauge.value());
    }
    return out;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::string> out;
    out.reserve(nodes.size());
    for (const Node &node : nodes)
        out.push_back(node.name);
    return out;
}

void
StatRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (Node &node : nodes) {
        node.counter.reset();
        node.gauge.reset();
    }
}

StatRegistry &
globalStats()
{
    static StatRegistry registry;
    return registry;
}

} // namespace smthill
