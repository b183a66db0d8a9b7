#include "common/options.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/log.hh"

namespace smthill
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t a = s.find_first_not_of(" \t\r\n");
    if (a == std::string::npos)
        return "";
    std::size_t b = s.find_last_not_of(" \t\r\n");
    return s.substr(a, b - a + 1);
}

} // namespace

void
OptionSet::add(const std::string &name, Kind kind, void *target,
               const std::string &help)
{
    if (options.count(name))
        fatal(msg("OptionSet: duplicate option '", name, "'"));
    options[name] = Option{kind, target, help};
}

void
OptionSet::addInt(const std::string &name, std::int64_t *target,
                  const std::string &help)
{
    add(name, Kind::Int64, target, help);
}

void
OptionSet::addUint(const std::string &name, std::uint64_t *target,
                   const std::string &help)
{
    add(name, Kind::Uint64, target, help);
}

void
OptionSet::addInt32(const std::string &name, int *target,
                    const std::string &help)
{
    add(name, Kind::Int32, target, help);
}

void
OptionSet::addBool(const std::string &name, bool *target,
                   const std::string &help)
{
    add(name, Kind::Bool, target, help);
}

void
OptionSet::addString(const std::string &name, std::string *target,
                     const std::string &help)
{
    add(name, Kind::String, target, help);
}

bool
OptionSet::has(const std::string &name) const
{
    return options.count(name) != 0;
}

bool
OptionSet::set(const std::string &name, const std::string &value,
               std::string &error)
{
    auto it = options.find(name);
    if (it == options.end()) {
        error = "unknown option '" + name + "'";
        return false;
    }
    const Option &opt = it->second;
    char *end = nullptr;
    switch (opt.kind) {
      case Kind::Int64: {
        long long v = std::strtoll(value.c_str(), &end, 0);
        if (end == value.c_str() || *end != '\0') {
            error = "bad integer for '" + name + "': " + value;
            return false;
        }
        *static_cast<std::int64_t *>(opt.target) = v;
        return true;
      }
      case Kind::Uint64: {
        unsigned long long v = std::strtoull(value.c_str(), &end, 0);
        if (end == value.c_str() || *end != '\0') {
            error = "bad unsigned integer for '" + name + "': " + value;
            return false;
        }
        *static_cast<std::uint64_t *>(opt.target) = v;
        return true;
      }
      case Kind::Int32: {
        long v = std::strtol(value.c_str(), &end, 0);
        if (end == value.c_str() || *end != '\0') {
            error = "bad integer for '" + name + "': " + value;
            return false;
        }
        *static_cast<int *>(opt.target) = static_cast<int>(v);
        return true;
      }
      case Kind::Bool: {
        if (value == "1" || value == "true" || value == "yes") {
            *static_cast<bool *>(opt.target) = true;
        } else if (value == "0" || value == "false" || value == "no") {
            *static_cast<bool *>(opt.target) = false;
        } else {
            error = "bad boolean for '" + name + "': " + value;
            return false;
        }
        return true;
      }
      case Kind::String:
        *static_cast<std::string *>(opt.target) = value;
        return true;
    }
    error = "internal option kind error";
    return false;
}

bool
OptionSet::loadFile(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open config file '" + path + "'";
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
            error = path + ":" + std::to_string(lineno) +
                    ": expected 'key = value'";
            return false;
        }
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (!set(key, value, error)) {
            error = path + ":" + std::to_string(lineno) + ": " + error;
            return false;
        }
    }
    return true;
}

bool
OptionSet::parseArgs(const std::vector<std::string> &args,
                     std::vector<std::string> &positional,
                     std::string &error)
{
    for (const std::string &raw : args) {
        // GNU spellings: "--stats-json=x" means "stats_json=x". Only
        // the key of a key=value or "--" token is rewritten, so values
        // (workload=art-mcf) and bare positionals (paths) keep their
        // dashes.
        const bool gnu = raw.rfind("--", 0) == 0;
        std::string arg = gnu ? raw.substr(2) : raw;
        std::size_t eq = arg.find('=');
        if (gnu || eq != std::string::npos) {
            std::size_t keyEnd = std::min(eq, arg.size());
            std::replace(arg.begin(), arg.begin() + keyEnd, '-', '_');
        }
        if (eq == std::string::npos) {
            positional.push_back(arg);
            continue;
        }
        if (!set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)),
                 error))
            return false;
    }
    return true;
}

void
OptionSet::printHelp() const
{
    for (const auto &[name, opt] : options)
        std::printf("  %-24s %s\n", name.c_str(), opt.help.c_str());
}

} // namespace smthill
