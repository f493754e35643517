// JSON string escaping shared by every tool and library that writes JSON by hand.
#ifndef DUMBNET_SRC_UTIL_JSON_H_
#define DUMBNET_SRC_UTIL_JSON_H_

#include <string>

namespace dumbnet {

// `s` escaped for use between JSON double quotes: `"` and `\` are backslashed,
// \n and \t use their short forms, and every other control character is written
// as \uXXXX, so any input yields a valid JSON string.
std::string JsonEscape(const std::string& s);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_UTIL_JSON_H_
