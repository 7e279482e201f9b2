// Differential fuzz harness for the streaming REDD loader (data/redd.h).
// The first input byte picks where the rest splits into the two mains
// channel files of one house. Both LoadReddChannel (on channel_1) and
// LoadReddHouseMains must agree with the original row-materialising loader
// (tests/data/redd_reference.h): the same ok(), the same status, and
// bit-identical samples, at read-buffer sizes from 1 B (a refill tears
// every line) up to the production size.
//
// Crash condition (beyond sanitizer reports): any disagreement.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/check.h"
#include "data/redd.h"
#include "data/redd_reference.h"
#include "fuzz_input.h"

namespace smeter::data {
namespace {

// One scratch house per process; every iteration overwrites its files.
const std::string& HouseDir() {
  static const std::string* dir = [] {
    auto* path = new std::string(
        (std::filesystem::temp_directory_path() /
         ("smeter_fuzz_redd_" + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*path);
    return path;
  }();
  return *dir;
}

void WriteChannel(const std::string& name, const std::string& bytes) {
  std::ofstream out(HouseDir() + "/" + name,
                    std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SMETER_CHECK(out.good());
}

void ExpectAgree(const Result<TimeSeries>& got,
                 const Result<TimeSeries>& want) {
  const std::string mismatch = reference::Mismatch(got, want);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "fuzz_redd: %s\n", mismatch.c_str());
  }
  SMETER_CHECK(mismatch.empty());
}

}  // namespace
}  // namespace smeter::data

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace smeter::data;
  smeter::fuzz::FuzzInput in(data, size);
  const uint8_t split_byte = in.TakeByte();
  const std::string content = in.TakeRemainingString();
  const size_t split = content.size() * split_byte / 256;
  WriteChannel("channel_1.dat", content.substr(0, split));
  WriteChannel("channel_2.dat", content.substr(split));

  const std::string channel_1 = HouseDir() + "/channel_1.dat";
  const smeter::Result<smeter::TimeSeries> channel =
      reference::LoadReddChannel(channel_1);
  const smeter::Result<smeter::TimeSeries> house =
      reference::LoadReddHouseMains(HouseDir());
  ExpectAgree(LoadReddChannel(channel_1), channel);
  ExpectAgree(LoadReddHouseMains(HouseDir()), house);
  // Read buffers that tear lines at every offset, then the production size.
  for (size_t bytes : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       size_t{4096}, kReddReadBufferBytes}) {
    ExpectAgree(internal::LoadReddChannel(channel_1, bytes), channel);
    ExpectAgree(internal::LoadReddHouseMains(HouseDir(), bytes), house);
  }
  return 0;
}
