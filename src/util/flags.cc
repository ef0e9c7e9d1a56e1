#include "util/flags.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace longsight {

Flags::Flags(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = ""; // bare switch
        }
    }
}

bool
Flags::has(const std::string &name) const
{
    consumed_.insert(name);
    return values_.count(name) > 0;
}

std::string
Flags::getString(const std::string &name, const std::string &def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

int64_t
Flags::getInt(const std::string &name, int64_t def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --", name, " expects an integer, got '", it->second,
              "'");
    return v;
}

double
Flags::getDouble(const std::string &name, double def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --", name, " expects a number, got '", it->second,
              "'");
    return v;
}

bool
Flags::getBool(const std::string &name, bool def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v.empty() || v == "true" || v == "1")
        return true;
    if (v == "false" || v == "0")
        return false;
    fatal("flag --", name, " expects a boolean, got '", v, "'");
}

std::vector<std::string>
Flags::unconsumed() const
{
    std::vector<std::string> out;
    for (const auto &[name, value] : values_) {
        (void)value;
        if (!consumed_.count(name))
            out.push_back(name);
    }
    return out;
}

void
Flags::rejectUnknown() const
{
    const auto leftover = unconsumed();
    if (!leftover.empty())
        fatal("unknown flag --", leftover.front());
}

} // namespace longsight
