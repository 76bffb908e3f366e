// Whole-file reads and writes for the tool and the benches.

#ifndef KSPLICE_BASE_FILE_H_
#define KSPLICE_BASE_FILE_H_

#include <filesystem>
#include <string>

#include "base/status.h"

namespace ks {

// The file's bytes; NotFound when it cannot be opened.
Result<std::string> ReadFile(const std::filesystem::path& path);

// Replaces the file's contents, creating missing parent directories.
// Internal when the directories or the file cannot be written.
Status WriteFile(const std::filesystem::path& path,
                 const std::string& contents);

}  // namespace ks

#endif  // KSPLICE_BASE_FILE_H_
