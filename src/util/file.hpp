#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace beesim::util {

/// The whole of `path` as bytes. Throws std::runtime_error (with the path
/// and errno string) when the file cannot be opened or read.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Creates or truncates `path` and writes `bytes` to it. Throws
/// std::runtime_error (with the path and errno string) on failure. Not
/// durable on its own: replace_file() syncs the file it moves in place.
void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes);

/// Makes `from` durable and atomically puts it in place of `to`: fsyncs
/// the file, renames it over `to`, and fsyncs the containing directory so
/// the rename survives too. A crash at any point leaves `to` either as it
/// was or as `from`, never partial. Throws std::runtime_error (with the
/// path and errno string) on failure.
void replace_file(const std::string& from, const std::string& to);

}  // namespace beesim::util
