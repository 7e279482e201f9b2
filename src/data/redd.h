// Loader for the REDD low_freq on-disk layout (Kolter & Johnson, 2011) —
// for users who have the real dataset. Each channel is a text file of
// "unix_timestamp watts" lines; channels 1 and 2 are the two mains, and the
// paper sums them into the house total.
//
// Every entry point streams: a channel file is read through one fixed
// buffer of kReddReadBufferBytes (a line torn by a refill is carried over
// to the next one), so a house is joined and handed out sample by sample
// without either channel's text or parsed series ever being held whole.

#ifndef SMETER_DATA_REDD_H_
#define SMETER_DATA_REDD_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/time_series.h"

namespace smeter::data {

// Bytes each open channel reads per refill: the whole of a reader's
// memory, apart from the one line a refill tears.
inline constexpr size_t kReddReadBufferBytes = size_t{256} << 10;

// Reads one channel file (space-separated "timestamp value" rows, sorted by
// time). Rejects malformed rows and timestamp regressions.
Result<TimeSeries> LoadReddChannel(const std::string& path);

// Streams the house's total consumption: reads `house_dir`/channel_1.dat
// and channel_2.dat in lockstep and calls `on_sample` with each timestamp
// both channels share (REDD mains are sampled together; stray singletons
// are dropped), its value the sum of the two, in timestamp order. Both
// files are validated to their last row even after the join stops, so the
// returned status is the one a whole-file load would give: channel_1's
// error first, then channel_2's, then the first non-OK `on_sample`
// return (after which it is not called again), then FailedPrecondition if
// the channels share no timestamp. Samples handed out before an error are
// the caller's to discard.
Status ForEachReddHouseSample(const std::string& house_dir,
                              const std::function<Status(Sample)>& on_sample);

// ForEachReddHouseSample appended into one series.
Result<TimeSeries> LoadReddHouseMains(const std::string& house_dir);

namespace internal {

// The loaders above with an explicit read-buffer size, so tests can tear
// lines at every byte boundary (sizes down to 1). Not a tuning knob.
Result<TimeSeries> LoadReddChannel(const std::string& path,
                                   size_t read_buffer_bytes);
Result<TimeSeries> LoadReddHouseMains(const std::string& house_dir,
                                      size_t read_buffer_bytes);

}  // namespace internal
}  // namespace smeter::data

#endif  // SMETER_DATA_REDD_H_
