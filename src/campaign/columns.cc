/**
 * @file
 * JSON nesting and output files of the column tables (see
 * columns.hh).
 */

#include "campaign/columns.hh"

namespace pluto::campaign
{

JsonValue &
detail::jsonParent(JsonValue &obj, JsonGroups &groups,
                   const std::string &name, std::string &key)
{
    const std::size_t dot = name.find('.');
    key = name.substr(dot == std::string::npos ? 0 : dot + 1);
    if (dot == std::string::npos)
        return obj;
    const std::string_view prefix(name.data(), dot);
    for (const auto &[p, group] : groups)
        if (p == prefix)
            return *group;
    JsonValue &group = obj.set(std::string(prefix), JsonValue::object());
    groups.emplace_back(prefix, &group);
    return group;
}

std::string
writeOutputs(const std::string &stem, const std::string &csv,
             const std::string &json, std::vector<std::string> &written)
{
    for (const auto &[path, body] :
         {std::pair(stem + "_runs.csv", &csv),
          std::pair(stem + "_summary.json", &json)}) {
        const std::string err = writeTextFile(path, *body);
        if (!err.empty())
            return err;
        written.push_back(path);
    }
    return {};
}

} // namespace pluto::campaign
