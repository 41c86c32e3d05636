// Filesystem abstraction for the storage engine. PosixEnv does real file
// I/O; MemEnv keeps files in memory so tests and benches can run without
// touching disk (and so a "4-node cluster" bench is not bottlenecked by one
// laptop disk shared by all simulated nodes).
#ifndef COUCHKV_STORAGE_ENV_H_
#define COUCHKV_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace couchkv::storage {

// Random-access read / append-only write file handle.
class File {
 public:
  virtual ~File() = default;

  // Appends `data` at the end of the file; returns the offset it was
  // written at.
  virtual StatusOr<uint64_t> Append(std::string_view data) = 0;

  // Reads exactly `n` bytes at `offset` into `out`.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;

  virtual uint64_t Size() const = 0;

  // Durability barrier (fsync). MemEnv treats this as a no-op but counts it.
  virtual Status Sync() = 0;

  // Truncates to `size` (used to drop a torn tail).
  virtual Status Truncate(uint64_t size) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // Opens (creating if needed) a file for read/append.
  virtual StatusOr<std::unique_ptr<File>> Open(const std::string& path) = 0;

  virtual bool Exists(const std::string& path) const = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  // Process-wide singletons.
  static Env* Posix();

  // Creates a fresh private in-memory filesystem. `sync_delay_us` simulates
  // the cost of an fsync (0 = free): the substitution knob that stands in
  // for real disk latency when benchmarking durability trade-offs.
  static std::unique_ptr<Env> NewMemEnv(uint64_t sync_delay_us = 0);
};

}  // namespace couchkv::storage

#endif  // COUCHKV_STORAGE_ENV_H_
