/**
 * @file
 * Minimal command-line flag parsing shared by examples and benchmark
 * harnesses: `--name=value`, `--name value`, and boolean `--name`.
 */

#ifndef FP_UTIL_CLI_HH
#define FP_UTIL_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fp
{

class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &def = "") const;
    /** Numeric flags: a value that does not parse completely (or is
     *  out of range for the type) is fatal, naming the flag. */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def = false) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace fp

#endif // FP_UTIL_CLI_HH
