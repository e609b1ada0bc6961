#include "common/io.hpp"

#include <string>

#include "common/error.hpp"

namespace scalocate::io {

void write_string(std::ostream& os, const std::string& s) {
  write_scalar<std::uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void read_exact(std::istream& is, void* dst, std::size_t bytes) {
  if (bytes > 0)
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  if (!is)
    throw IoError("truncated: the stream ends inside a " +
                  std::to_string(bytes) + "-byte field");
}

std::uint64_t read_length(std::istream& is, std::size_t element_bytes) {
  std::uint64_t n = 0;
  read_exact(is, &n, sizeof n);
  const auto pos = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  if (pos < 0 || end < 0 || !is)
    throw IoError("cannot bound a length prefix: the stream does not seek");
  const auto left = static_cast<std::uint64_t>(end - pos);
  if (n > left / element_bytes)
    throw IoError("corrupt length prefix: " + std::to_string(n) + " x " +
                  std::to_string(element_bytes) + " bytes, " +
                  std::to_string(left) + " left");
  return n;
}

std::string read_string(std::istream& is) {
  std::string s(static_cast<std::size_t>(read_length(is, 1)), '\0');
  read_exact(is, s.data(), s.size());
  return s;
}

std::ofstream open_for_write(const std::string& path, std::uint64_t magic) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw IoError("cannot open for writing: " + path);
  write_scalar(os, magic);
  return os;
}

std::ifstream open_for_read(const std::string& path, std::uint64_t magic) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open for reading: " + path);
  const auto found = read_scalar<std::uint64_t>(is);
  if (!is || found != magic)
    throw IoError("bad magic in file: " + path);
  return is;
}

}  // namespace scalocate::io
