// The daemon hop, observed.
//
// Untraced, BenchSink forwards every callback to the product's IngestSink
// and only timestamps each on_segment's return.  Traced, it replaces
// IngestSink with benchmark-owned code that makes the same public calls in
// IngestSink::on_segment's order -- decode, pipeline ingest, store append --
// each inside a span, so their costs separate.
//
// Every connection's publisher names itself "<anything>-<k>"; k is the
// connection index the workload's sender uses, so arrivals can be matched
// to sends in per-connection FIFO order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "store/store.h"
#include "trace.h"
#include "transport/ingest_sink.h"
#include "transport/subscriber.h"

namespace causeway::bench {

class BenchSink final : public transport::DaemonSink {
 public:
  struct Config {
    analysis::AnalysisPipeline* pipeline{nullptr};  // not owned; may be null
    std::string store_dir;                           // "" = no store
    store::StoreOptions store_options;
    Tracer* tracer{nullptr};  // non-null: the traced replacement runs
  };

  // One on_segment call.
  struct Arrival {
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::size_t connection{0};
    std::size_t nth{0};          // position on its connection
    std::uint64_t records{0};
    std::uint64_t cumulative{0};  // records stored after this call
  };

  struct Totals {
    std::uint64_t segments{0};
    std::uint64_t records{0};
    std::uint64_t publish_dropped_records{0};
    std::uint64_t sampled_out_records{0};
    std::size_t store_files{0};
  };

  explicit BenchSink(Config config);
  ~BenchSink() override;
  BenchSink(const BenchSink&) = delete;
  BenchSink& operator=(const BenchSink&) = delete;

  // Traced run: the sending side's span for the next segment it put on
  // connection `connection` (its offer or write), and when.  on_segment
  // pops these in FIFO order to name its cause and time the transport wait.
  void expect(std::size_t connection, std::uint64_t cause_span,
              std::int64_t sent_ns);
  // Withdraws the newest expectation: the uplink refused that segment, so
  // it will never arrive.
  void unexpect_last(std::size_t connection);

  void on_connect(const transport::PeerInfo& peer) override;
  void on_segment(const transport::PeerInfo& peer,
                  std::span<const std::uint8_t> segment) override;
  void on_drop_notice(const transport::PeerInfo& peer,
                      const transport::DropNotice& notice) override;
  void on_status(const transport::PeerInfo& peer,
                 const transport::ControlStatus& status) override;
  void on_disconnect(const transport::PeerInfo& peer, bool clean) override;

  std::uint64_t records() const;
  // Blocks until at least `records` records are stored, or `timeout_s`
  // passes; returns whether they were.
  bool wait_records(std::uint64_t records, double timeout_s) const;
  std::vector<Arrival> arrivals() const;
  // Transport waits (ms) matched in the traced run.
  Samples waits_ms() const;
  // Appends during which the store sealed a file (traced run).
  Samples seal_ms() const;

  // Seals the store; call after CollectorDaemon::stop().
  Totals finalize();

 private:
  static std::size_t connection_of(const transport::PeerInfo& peer);
  std::uint64_t traced_segment(std::span<const std::uint8_t> segment,
                               std::uint64_t parent, std::uint64_t request);

  Config config_;
  std::unique_ptr<transport::IngestSink> product_;  // untraced run
  std::unique_ptr<store::StoreWriter> store_;       // traced run

  mutable std::mutex mutex_;
  mutable std::condition_variable stored_;          // totals_.records grew
  Totals totals_;                                   // guarded by mutex_
  std::vector<Arrival> arrivals_;                   // guarded by mutex_
  std::vector<std::size_t> per_connection_;         // guarded by mutex_
  struct Expected {
    std::uint64_t span;
    std::int64_t sent_ns;
  };
  std::vector<std::deque<Expected>> expected_;  // guarded by mutex_
  Samples waits_ms_;                            // guarded by mutex_
  Samples seal_ms_;                             // guarded by mutex_
};

}  // namespace causeway::bench
