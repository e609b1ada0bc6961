// Minimal binary serialization helpers.
//
// All scalocate on-disk formats (trace files, model checkpoints) are built
// from these primitives. Values are written little-endian; files start with
// a 8-byte magic so load errors are caught early.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace scalocate::io {

/// Writes a POD scalar little-endian. Only use with integral/float types.
template <typename T>
void write_scalar(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads a POD scalar written by write_scalar.
template <typename T>
T read_scalar(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  return value;
}

/// Writes a length-prefixed vector of scalars.
template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  write_scalar<std::uint64_t>(os, v.size());
  if (!v.empty())
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Reads exactly `bytes` bytes into `dst`. Throws IoError when the stream
/// ends first.
void read_exact(std::istream& is, void* dst, std::size_t bytes);

/// Reads the u64 length prefix of `element_bytes`-sized elements that
/// write_vector and write_string put first. Throws IoError when the stream
/// ends first, or when that many elements cannot fit in the bytes left in
/// the (seekable) stream: checked before the caller allocates, so a
/// corrupt prefix cannot turn a small file into a huge zero-fill.
std::uint64_t read_length(std::istream& is, std::size_t element_bytes);

/// Reads a vector written by write_vector. Throws IoError on a short
/// stream or a corrupt length (see read_length).
template <typename T>
std::vector<T> read_vector(std::istream& is) {
  std::vector<T> v(static_cast<std::size_t>(read_length(is, sizeof(T))));
  read_exact(is, v.data(), v.size() * sizeof(T));
  return v;
}

/// Writes a length-prefixed UTF-8 string.
void write_string(std::ostream& os, const std::string& s);

/// Reads a string written by write_string. Throws IoError on a short
/// stream or a corrupt length (see read_length).
std::string read_string(std::istream& is);

/// Opens a file for binary writing, writing `magic` (8 bytes) first.
/// Throws IoError on failure.
std::ofstream open_for_write(const std::string& path, std::uint64_t magic);

/// Opens a file for binary reading and validates the magic.
/// Throws IoError on failure or magic mismatch.
std::ifstream open_for_read(const std::string& path, std::uint64_t magic);

}  // namespace scalocate::io
