// hkbench: direct probes of single layers' public functions, run by the
// traced run after its timed phase, on the workload's own keys and values.
// Each returns nanoseconds per call.

#ifndef HKBENCH_SRC_PROBES_H_
#define HKBENCH_SRC_PROBES_H_

#include <string>
#include <vector>

#include "hkbench/src/common.h"

namespace hkb {

struct ProbeInputs {
  std::vector<std::string> keys;
  std::vector<std::string> values;  // values[i] belongs to keys[i]
  std::string dir;                  // scratch directory for page files
  uint32_t page_size = 1024;
  int threads = 1;
};

// util: the table's default bucket hash over the keys.
double ProbeHashNsPerKey(const ProbeInputs& in);
// util: `threads` threads recording into one shared LatencyHistogram.
double ProbeHistogramRecordNs(const ProbeInputs& in);
// pagefile: BufferPool::Get of one resident page, from `threads` threads.
double ProbePoolHitNs(const ProbeInputs& in, int threads);
// pagefile: BufferPool::Get that misses (pages cycled through a small pool).
double ProbePoolMissNs(const ProbeInputs& in);
// net: DecodeRequest of binary GET/PUT frames built from the inputs.
double ProbeBinaryDecodeNs(const ProbeInputs& in);
// net: mc::ParseCommandLine of get/set lines built from the inputs.
double ProbeTextParseNs(const ProbeInputs& in);

}  // namespace hkb

#endif  // HKBENCH_SRC_PROBES_H_
