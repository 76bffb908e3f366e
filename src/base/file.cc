#include "base/file.h"

#include <fstream>
#include <iterator>
#include <system_error>

namespace ks {

Result<std::string> ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("cannot read " + path.string());
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

Status WriteFile(const std::filesystem::path& path,
                 const std::string& contents) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (!out) {
    return Internal("cannot write " + path.string());
  }
  return OkStatus();
}

}  // namespace ks
