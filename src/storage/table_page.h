// TablePage: slotted-page layout over a raw buffer-pool frame.
//
// Layout (little-endian):
//   [0..3]   next_page_id (int32)  — forward link of the heap file
//   [4..5]   num_slots    (uint16)
//   [6..7]   free_end     (uint16) — lowest byte offset used by tuple data;
//                                    data grows downward from kPageSize
//   [8..15]  page_lsn     (uint64) — LSN of the newest logged mutation
//                                    persisted on this page; REDO skips
//                                    records at or below it (idempotency)
//   [16..]   slot array: {uint16 offset, uint16 size} per slot.
//            size == 0 marks a deleted slot (offset then unused).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "types/tuple.h"

namespace recdb {

/// Record id: page + slot.
struct Rid {
  page_id_t page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool operator==(const Rid& o) const {
    return page_id == o.page_id && slot == o.slot;
  }
  std::string ToString() const {
    std::string out = "(";  // appended: GCC 12 false -Wrestrict otherwise
    out += std::to_string(page_id);
    out += ",";
    out += std::to_string(slot);
    out += ")";
    return out;
  }
};

/// Non-owning view interpreting a Page as a slotted table page.
class TablePage {
 public:
  explicit TablePage(Page* page) : page_(page) {}

  /// Format a freshly allocated page.
  void Init();

  page_id_t next_page_id() const;
  void set_next_page_id(page_id_t pid);

  /// On-disk REDO watermark (see layout comment). Distinct from the
  /// in-memory Page::lsn() WAL-rule watermark, which is never serialized.
  uint64_t page_lsn() const;
  void set_page_lsn(uint64_t lsn);

  /// False for a never-formatted (all-zero) page: recovery uses this to
  /// detect heap pages whose formatting write never reached the device.
  bool initialized() const;

  uint16_t num_slots() const;

  /// Bytes available for a new tuple (accounting for a possible new slot).
  size_t FreeSpaceForInsert() const;

  /// Insert serialized bytes; returns slot index, or ResourceExhausted if
  /// the tuple does not fit.
  Result<uint16_t> Insert(const std::vector<uint8_t>& bytes);

  /// Raw bytes of a live slot; NotFound for deleted/out-of-range slots.
  Result<std::pair<const uint8_t*, size_t>> Get(uint16_t slot) const;

  /// Mark a slot deleted. Space is reclaimed only by compaction (not
  /// implemented; heap files in this engine are append-mostly, as in the
  /// paper's workloads).
  Status Delete(uint16_t slot);

  /// Overwrite a slot in place if the new payload fits in the old slot's
  /// byte range; otherwise ResourceExhausted (caller re-inserts elsewhere).
  Status UpdateInPlace(uint16_t slot, const std::vector<uint8_t>& bytes);

 private:
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kSlotSize = 4;

  uint16_t free_end() const;
  void set_free_end(uint16_t v);
  void set_num_slots(uint16_t v);
  std::pair<uint16_t, uint16_t> slot_at(uint16_t i) const;  // {offset, size}
  void set_slot(uint16_t i, uint16_t off, uint16_t size);

  Page* page_;
};

}  // namespace recdb
