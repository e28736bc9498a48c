// TableHeap: a linked list of slotted pages storing one table's tuples.
//
// Access pattern matches the paper's operators: sequential block-at-a-time
// scans through the buffer pool, append-mostly inserts.
//
// With a LogManager attached (EnableLogging), every mutation appends a
// logical WAL record and stamps both the on-disk page_lsn (REDO idempotency
// watermark) and the in-memory Page lsn (buffer-pool WAL rule) while the
// page is still pinned, so an eviction can never write back an unstamped
// mutation. The Redo* entry points replay those records over a checkpoint
// image in LSN order.
#pragma once

#include <optional>
#include <string>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/table_page.h"
#include "types/tuple.h"

namespace recdb {

class LogManager;

/// Decoded payload of a tuple-level WAL record (kInsert/kDelete/kUpdate).
struct WalTupleRecord {
  std::string table;
  Rid rid{};
  std::vector<uint8_t> bytes;  // serialized tuple; empty for kDelete
};

/// Payload codec for tuple-level WAL records; `bytes` is null for kDelete.
std::vector<uint8_t> EncodeWalTupleRecord(const std::string& table,
                                          const Rid& rid,
                                          const std::vector<uint8_t>* bytes);
Result<WalTupleRecord> DecodeWalTupleRecord(
    const std::vector<uint8_t>& payload);

class TableHeap {
 public:
  /// Create a new heap file (allocates the first page).
  static Result<std::unique_ptr<TableHeap>> Create(BufferPool* pool);

  /// Re-attach to a heap whose pages already exist on disk (used when a
  /// file-backed database is reopened from its persisted catalog).
  static std::unique_ptr<TableHeap> Attach(BufferPool* pool,
                                           page_id_t first_page_id,
                                           page_id_t last_page_id,
                                           size_t num_tuples);

  /// Start WAL-logging mutations under `table_name` (the name REDO uses to
  /// route records back to this heap). Records are buffered; the caller
  /// owns commit timing.
  void EnableLogging(LogManager* log, std::string table_name) {
    log_ = log;
    table_name_ = std::move(table_name);
  }

  /// Insert a tuple, returning its record id.
  Result<Rid> Insert(const Tuple& tuple);

  /// Read the tuple at `rid` (`num_values` = column count of the schema).
  Result<Tuple> Get(const Rid& rid, size_t num_values) const;

  /// Delete the tuple at `rid`.
  Status Delete(const Rid& rid);

  /// Update in place when possible; otherwise delete + re-insert.
  /// Returns the (possibly new) rid.
  Result<Rid> Update(const Rid& rid, const Tuple& tuple);

  // REDO entry points: re-apply a recovered WAL record over the checkpoint
  // image. Must be called in LSN order. Page mutations are skipped when the
  // page's persisted page_lsn already covers the record, but the in-memory
  // tuple count always adjusts (catalog counts are checkpoint-time).
  Status RedoInsert(const Rid& rid, const std::vector<uint8_t>& bytes,
                    uint64_t lsn);
  Status RedoDelete(const Rid& rid, uint64_t lsn);
  Status RedoUpdate(const Rid& rid, const std::vector<uint8_t>& bytes,
                    uint64_t lsn);

  /// Clear a dangling next-page link on the tail page — left behind when a
  /// crashed run flushed the tail after chaining a fresh page whose insert
  /// never committed. Scans would otherwise walk into unformatted pages.
  Status RepairTail(bool* repaired);

  page_id_t first_page_id() const { return first_page_id_; }
  page_id_t last_page_id() const { return last_page_id_; }
  size_t num_tuples() const { return num_tuples_; }

  /// Forward iterator over live tuples, page by page. Usage:
  ///   auto it = heap.Begin(ncols);
  ///   while (true) {
  ///     auto next = it.Next();           // Result<optional<pair<Rid,Tuple>>>
  ///     if (!next.ok()) ...error...
  ///     if (!next.value()) break;        // exhausted
  ///   }
  ///
  /// Pin discipline: the iterator holds at most one pin, on the page it is
  /// reading, from the first tuple of that page until it steps past the
  /// page's last slot (or is destroyed). A scan therefore costs one
  /// buffer-pool fetch per page, not one per tuple. Returned tuples are
  /// decoded copies, so no caller ever points into the pinned frame. The
  /// iterator is move-only (it owns the pin). Callers must not mutate a
  /// page of this heap while a live iterator may have it pinned: DML
  /// collects its victims with a finished scan before mutating, and writers
  /// hold the engine lock exclusively, so no reader's scan is in flight.
  class Iterator {
   public:
    Iterator(const TableHeap* heap, size_t num_values)
        : heap_(heap),
          num_values_(num_values),
          page_id_(heap->first_page_id_) {}

    /// Next live tuple, or nullopt at end.
    Result<std::optional<std::pair<Rid, Tuple>>> Next();

   private:
    const TableHeap* heap_;
    size_t num_values_;
    page_id_t page_id_;
    uint16_t slot_ = 0;
    PageGuard guard_;  // pin on page_id_ while mid-page; empty otherwise
  };

  Iterator Begin(size_t num_values) const { return Iterator(this, num_values); }

 private:
  explicit TableHeap(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  LogManager* log_ = nullptr;
  std::string table_name_;
  page_id_t first_page_id_ = kInvalidPageId;
  page_id_t last_page_id_ = kInvalidPageId;
  size_t num_tuples_ = 0;
};

}  // namespace recdb
