#include "util/cli.hh"

#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace fp
{

CliArgs::CliArgs(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            flags_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags_[body] = argv[++i];
        } else {
            flags_[body] = "true";
        }
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE)
        fp_fatal("--%s expects an integer (got '%s')", name.c_str(),
                 text);
    return v;
}

double
CliArgs::getDouble(const std::string &name, double def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE)
        fp_fatal("--%s expects a number (got '%s')", name.c_str(),
                 text);
    return v;
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fp_fatal("--%s expects a boolean (got '%s'; use true|1|yes|on or "
             "false|0|no|off)",
             name.c_str(), v.c_str());
}

} // namespace fp
