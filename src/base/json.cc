#include "base/json.h"

namespace ks {

std::string JsonEscaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  if (out_.size() > 1) {
    out_ += ',';
  }
  out_ += '"';
  out_ += JsonEscaped(key);
  out_ += "\":";
  out_ += json;
  return *this;
}

}  // namespace ks
