#include "util/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/logging.h"

namespace pra {
namespace util {

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        std::string item =
            list.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (!item.empty())
            items.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

namespace {

/** Plain Levenshtein distance for "did you mean" suggestions. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); j++)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); i++) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); j++) {
            size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

ArgParser::ArgParser(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        if (body.empty())
            fatal("empty flag name: '" + arg + "'");
        // Values attach with '='; a bare "--name" is a boolean. The
        // "--name value" form is deliberately unsupported: it is
        // ambiguous against positional arguments. A flag given twice
        // is an error, not last-one-wins.
        auto eq = body.find('=');
        std::string name = body.substr(0, eq);
        std::string value =
            eq == std::string::npos ? "" : body.substr(eq + 1);
        if (!flags_.emplace(name, value).second)
            fatal("flag --" + name + " given more than once");
    }
}

void
ArgParser::checkUnknown(const std::vector<std::string> &known,
                        std::ostream *help) const
{
    if (help && has("help")) {
        std::vector<std::string> names = known;
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()), names.end());
        for (const auto &name : names)
            *help << "--" << name << "\n";
        help->flush();
        std::exit(0);
    }
    for (const auto &[name, value] : flags_) {
        (void)value;
        if (std::find(known.begin(), known.end(), name) != known.end())
            continue;
        std::string msg = "unknown flag --" + name;
        size_t best = name.size();
        const std::string *suggestion = nullptr;
        for (const auto &candidate : known) {
            size_t d = editDistance(name, candidate);
            if (d < best && d <= 2) {
                best = d;
                suggestion = &candidate;
            }
        }
        if (suggestion)
            msg += " (did you mean --" + *suggestion + "?)";
        fatal(msg);
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
ArgParser::getString(const std::string &name,
                     const std::string &fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

int64_t
ArgParser::getInt(const std::string &name, int64_t fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    int64_t v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --" + name + " expects an integer, got '" +
              it->second + "'");
    if (errno == ERANGE)
        fatal("flag --" + name + " is out of range, got '" +
              it->second + "'");
    return v;
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --" + name + " expects a number, got '" +
              it->second + "'");
    return v;
}

bool
ArgParser::getBool(const std::string &name, bool fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    const std::string &v = it->second;
    if (v.empty() || v == "true" || v == "1" || v == "yes" ||
        v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("flag --" + name + " expects a boolean, got '" + v + "'");
}

int64_t
ArgParser::sampleUnits(int64_t fallback) const
{
    int64_t units = getInt("units", fallback);
    if (has("units") && units <= 0)
        fatal("--units must be a positive sampling cap (got " +
              std::to_string(units) +
              "); use --full for an exhaustive run");
    return getBool("full") ? 0 : units;
}

int
ArgParser::getCount(const std::string &name, int fallback, int min,
                    const std::string &what) const
{
    const int64_t v = getInt(name, fallback);
    const int64_t max = std::numeric_limits<int>::max();
    if (v < min || v > max)
        fatal("--" + name + " must be " +
              (v < min ? what : "at most " + std::to_string(max)) +
              " (got " + std::to_string(v) + ")");
    return static_cast<int>(v);
}

} // namespace util
} // namespace pra
