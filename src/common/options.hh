/**
 * @file
 * Key=value option handling for the CLI driver and config files.
 *
 * An OptionSet is a registry of named, typed knobs bound to caller
 * variables. Values can come from `key=value` command-line tokens or
 * from a config file (one `key = value` per line, `#` comments),
 * which is how the machine/experiment parameters are overridden
 * without recompiling.
 */

#ifndef SMTHILL_COMMON_OPTIONS_HH
#define SMTHILL_COMMON_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace smthill
{

/** Typed option registry with file/CLI parsing. */
class OptionSet
{
  public:
    /** Bind an integer-valued option to @p target. */
    void addInt(const std::string &name, std::int64_t *target,
                const std::string &help);

    /** Bind an unsigned 64-bit option to @p target. */
    void addUint(const std::string &name, std::uint64_t *target,
                 const std::string &help);

    /** Bind a plain int option to @p target. */
    void addInt32(const std::string &name, int *target,
                  const std::string &help);

    /** Bind a boolean option (accepts 0/1/true/false) to @p target. */
    void addBool(const std::string &name, bool *target,
                 const std::string &help);

    /** Bind a string option to @p target. */
    void addString(const std::string &name, std::string *target,
                   const std::string &help);

    /**
     * Apply `name=value`. @return false (with a message in @p error)
     * for unknown names or unparsable values.
     */
    bool set(const std::string &name, const std::string &value,
             std::string &error);

    /**
     * Parse a config file of `key = value` lines. Blank lines and
     * lines starting with '#' are ignored.
     * @return false with @p error set on the first problem
     */
    bool loadFile(const std::string &path, std::string &error);

    /**
     * Consume `key=value` tokens from a CLI argument list; tokens
     * without '=' are left for the caller in @p positional. GNU
     * spellings are accepted: a leading `--` is dropped and dashes
     * in the key become underscores (`--stats-json=a-b` sets
     * `stats_json` to `a-b`, `--help` is the positional `help`).
     * A bare positional is never rewritten.
     * @return false with @p error set on the first problem
     */
    bool parseArgs(const std::vector<std::string> &args,
                   std::vector<std::string> &positional,
                   std::string &error);

    /** Print all registered options and their help strings. */
    void printHelp() const;

    /** @return true if an option named @p name exists. */
    bool has(const std::string &name) const;

  private:
    enum class Kind
    {
        Int64,
        Uint64,
        Int32,
        Bool,
        String
    };

    struct Option
    {
        Kind kind;
        void *target;
        std::string help;
    };

    void add(const std::string &name, Kind kind, void *target,
             const std::string &help);

    std::map<std::string, Option> options;
};

} // namespace smthill

#endif // SMTHILL_COMMON_OPTIONS_HH
