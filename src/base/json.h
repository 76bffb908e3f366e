// The one JSON writer. Every JSON object the project emits (the typed
// reports, the per-CVE evaluation outcome, the metrics registry, the trace
// export) is built by JsonObject, so the format — separators, escaping,
// number spelling — is decided here and nowhere else.
//
//   ks::JsonObject()
//       .Add("id", id)            // strings: always escaped
//       .Add("ok", ok)            // bool: true / false
//       .Add("pause_ns", pause)   // integers: decimal
//       .Add("rate", 12.5)        // double: %.3f
//       .Add("match", stats)      // a T with ToJson(): nested as is
//       .Add("rows", rows)        // std::vector of any of the above: array
//       .Raw("args", json)        // pre-serialized value
//       .str();                   // closes the object

#ifndef KSPLICE_BASE_JSON_H_
#define KSPLICE_BASE_JSON_H_

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/strings.h"

namespace ks {

// Escapes `text` for use inside a JSON string literal: quote, backslash,
// \n and \t by name, every other control character as \u00XX.
std::string JsonEscaped(std::string_view text);

class JsonObject {
 public:
  template <typename T>
  JsonObject& Add(std::string_view key, const T& value) {
    return Raw(key, Value(value));
  }

  // Adds a field whose value is already serialized JSON.
  JsonObject& Raw(std::string_view key, std::string_view json);

  // The finished object.
  std::string str() const { return out_ + "}"; }

 private:
  template <typename T>
  static std::string Value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      return value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      return StrPrintf("%.3f", static_cast<double>(value));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      return "\"" + JsonEscaped(value) + "\"";
    } else if constexpr (std::is_same_v<T, JsonObject>) {
      return value.str();
    } else {
      return value.ToJson();
    }
  }

  template <typename T>
  static std::string Value(const std::vector<T>& values) {
    std::string out = "[";
    for (const T& value : values) {
      if (out.size() > 1) {
        out += ',';
      }
      out += Value(value);
    }
    return out + "]";
  }

  std::string out_ = "{";
};

}  // namespace ks

#endif  // KSPLICE_BASE_JSON_H_
