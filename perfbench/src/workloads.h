#ifndef CRSAT_PERFBENCH_WORKLOADS_H_
#define CRSAT_PERFBENCH_WORKLOADS_H_

#include "src/report.h"

namespace perfbench {

// The schema designer's loop over a seeded corpus, one pool thread.
WorkloadResult RunCheckBatch(const RunOptions& options);

// Repeated implication-engine batches over seeded ISA chains, two pool
// threads.
WorkloadResult RunImplication(const RunOptions& options);

// An in-process crsatd on loopback with two request-reply connections.
WorkloadResult RunServeMixed(const RunOptions& options);

}  // namespace perfbench

#endif  // CRSAT_PERFBENCH_WORKLOADS_H_
