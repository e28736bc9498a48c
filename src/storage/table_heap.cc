#include "storage/table_heap.h"

#include "common/bytes.h"
#include "storage/log_manager.h"

namespace recdb {

std::vector<uint8_t> EncodeWalTupleRecord(const std::string& table,
                                          const Rid& rid,
                                          const std::vector<uint8_t>* bytes) {
  ByteWriter w;
  w.Str(table);
  w.Num<int32_t>(rid.page_id);
  w.Num<uint16_t>(rid.slot);
  if (bytes != nullptr) {
    w.Num<uint32_t>(static_cast<uint32_t>(bytes->size()));
    w.Raw(bytes->data(), bytes->size());
  }
  return w.bytes();
}

Result<WalTupleRecord> DecodeWalTupleRecord(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  WalTupleRecord rec;
  RECDB_ASSIGN_OR_RETURN(rec.table, r.Str());
  RECDB_ASSIGN_OR_RETURN(rec.rid.page_id, r.Num<int32_t>());
  RECDB_ASSIGN_OR_RETURN(rec.rid.slot, r.Num<uint16_t>());
  if (r.Remaining() > 0) {
    RECDB_ASSIGN_OR_RETURN(uint32_t n, r.Num<uint32_t>());
    rec.bytes.resize(n);
    RECDB_RETURN_NOT_OK(r.Raw(rec.bytes.data(), n));
  }
  return rec;
}

Result<std::unique_ptr<TableHeap>> TableHeap::Create(BufferPool* pool) {
  auto heap = std::unique_ptr<TableHeap>(new TableHeap(pool));
  page_id_t pid;
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool->NewGuard(&pid));
  TablePage tp(guard.page());
  tp.Init();
  RECDB_RETURN_NOT_OK(guard.Drop());
  heap->first_page_id_ = pid;
  heap->last_page_id_ = pid;
  return heap;
}

std::unique_ptr<TableHeap> TableHeap::Attach(BufferPool* pool,
                                             page_id_t first_page_id,
                                             page_id_t last_page_id,
                                             size_t num_tuples) {
  auto heap = std::unique_ptr<TableHeap>(new TableHeap(pool));
  heap->first_page_id_ = first_page_id;
  heap->last_page_id_ = last_page_id;
  heap->num_tuples_ = num_tuples;
  return heap;
}

Result<Rid> TableHeap::Insert(const Tuple& tuple) {
  std::vector<uint8_t> bytes;
  tuple.SerializeTo(&bytes);
  if (bytes.size() > kPageSize - 64) {
    return Status::InvalidArgument("tuple larger than a page");
  }
  RECDB_ASSIGN_OR_RETURN(PageGuard tail, pool_->FetchGuard(last_page_id_));
  TablePage tp(tail.page());
  auto slot = tp.Insert(bytes);
  if (slot.ok()) {
    Rid rid{last_page_id_, slot.value()};
    if (log_ != nullptr) {
      // Log + stamp while the page is pinned: an unpinned dirty page could
      // be evicted (written back) before its record reaches the log buffer.
      Lsn lsn = log_->Append(WalRecordType::kInsert,
                             EncodeWalTupleRecord(table_name_, rid, &bytes));
      tp.set_page_lsn(lsn);
      tail.page()->set_lsn(lsn);
    }
    tail.MarkDirty();
    RECDB_RETURN_NOT_OK(tail.Drop());
    ++num_tuples_;
    return rid;
  }
  // Current tail is full: chain a fresh page. One record covers the whole
  // step; REDO re-links the old tail when it replays an insert whose rid
  // lands past the current tail.
  page_id_t new_pid;
  RECDB_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewGuard(&new_pid));
  TablePage new_tp(fresh.page());
  new_tp.Init();
  tp.set_next_page_id(new_pid);
  RECDB_ASSIGN_OR_RETURN(uint16_t slot2, new_tp.Insert(bytes));
  Rid rid{new_pid, slot2};
  if (log_ != nullptr) {
    Lsn lsn = log_->Append(WalRecordType::kInsert,
                           EncodeWalTupleRecord(table_name_, rid, &bytes));
    tp.set_page_lsn(lsn);
    tail.page()->set_lsn(lsn);
    new_tp.set_page_lsn(lsn);
    fresh.page()->set_lsn(lsn);
  }
  tail.MarkDirty();
  RECDB_RETURN_NOT_OK(tail.Drop());
  last_page_id_ = new_pid;
  RECDB_RETURN_NOT_OK(fresh.Drop());
  ++num_tuples_;
  return rid;
}

Result<Tuple> TableHeap::Get(const Rid& rid, size_t num_values) const {
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(rid.page_id));
  TablePage tp(guard.page());
  RECDB_ASSIGN_OR_RETURN(auto bytes, tp.Get(rid.slot));
  RECDB_ASSIGN_OR_RETURN(
      Tuple tuple,
      Tuple::DeserializeFrom(bytes.first, bytes.second, num_values));
  RECDB_RETURN_NOT_OK(guard.Drop());
  return tuple;
}

Status TableHeap::Delete(const Rid& rid) {
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(rid.page_id));
  TablePage tp(guard.page());
  RECDB_RETURN_NOT_OK(tp.Delete(rid.slot));
  if (log_ != nullptr) {
    Lsn lsn = log_->Append(WalRecordType::kDelete,
                           EncodeWalTupleRecord(table_name_, rid, nullptr));
    tp.set_page_lsn(lsn);
    guard.page()->set_lsn(lsn);
  }
  guard.MarkDirty();
  RECDB_RETURN_NOT_OK(guard.Drop());
  --num_tuples_;
  return Status::OK();
}

Result<Rid> TableHeap::Update(const Rid& rid, const Tuple& tuple) {
  std::vector<uint8_t> bytes;
  tuple.SerializeTo(&bytes);
  {
    RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(rid.page_id));
    TablePage tp(guard.page());
    Status st = tp.UpdateInPlace(rid.slot, bytes);
    if (st.ok()) {
      if (log_ != nullptr) {
        Lsn lsn = log_->Append(WalRecordType::kUpdate,
                               EncodeWalTupleRecord(table_name_, rid, &bytes));
        tp.set_page_lsn(lsn);
        guard.page()->set_lsn(lsn);
      }
      guard.MarkDirty();
      RECDB_RETURN_NOT_OK(guard.Drop());
      return rid;
    }
    if (st.code() != StatusCode::kResourceExhausted) return st;
  }
  // The displacing path logs through Delete and Insert themselves.
  RECDB_RETURN_NOT_OK(Delete(rid));
  return Insert(tuple);
}

Status TableHeap::RedoInsert(const Rid& rid, const std::vector<uint8_t>& bytes,
                             uint64_t lsn) {
  if (rid.page_id != last_page_id_) {
    // Chain extension: the record's rid lies past the current tail. Re-link
    // the tail (idempotent — the link is the same value either way) and
    // make sure the new page exists on a device that never saw its
    // allocation.
    pool_->EnsureAllocated(rid.page_id);
    RECDB_ASSIGN_OR_RETURN(PageGuard tail, pool_->FetchGuard(last_page_id_));
    TablePage tp(tail.page());
    if (tp.page_lsn() < lsn) {
      tp.set_next_page_id(rid.page_id);
      tp.set_page_lsn(lsn);
      tail.MarkDirty();
    }
    RECDB_RETURN_NOT_OK(tail.Drop());
    last_page_id_ = rid.page_id;
  }
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(rid.page_id));
  TablePage tp(guard.page());
  if (!tp.initialized()) {
    tp.Init();
    guard.MarkDirty();
  }
  if (tp.page_lsn() < lsn) {
    // Records replay in LSN order over the checkpoint image, so this
    // record's slot must be exactly the page's next free slot.
    if (tp.num_slots() != rid.slot) {
      return Status::DataLoss("REDO insert slot mismatch at " +
                              rid.ToString());
    }
    RECDB_ASSIGN_OR_RETURN(uint16_t slot, tp.Insert(bytes));
    (void)slot;
    tp.set_page_lsn(lsn);
    guard.MarkDirty();
  }
  RECDB_RETURN_NOT_OK(guard.Drop());
  ++num_tuples_;
  return Status::OK();
}

Status TableHeap::RedoDelete(const Rid& rid, uint64_t lsn) {
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(rid.page_id));
  TablePage tp(guard.page());
  if (tp.page_lsn() < lsn) {
    RECDB_RETURN_NOT_OK(tp.Delete(rid.slot));
    tp.set_page_lsn(lsn);
    guard.MarkDirty();
  }
  RECDB_RETURN_NOT_OK(guard.Drop());
  --num_tuples_;
  return Status::OK();
}

Status TableHeap::RedoUpdate(const Rid& rid, const std::vector<uint8_t>& bytes,
                             uint64_t lsn) {
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(rid.page_id));
  TablePage tp(guard.page());
  if (tp.page_lsn() < lsn) {
    // kUpdate is only logged for successful in-place updates, so the replay
    // must fit in the old slot too.
    RECDB_RETURN_NOT_OK(tp.UpdateInPlace(rid.slot, bytes));
    tp.set_page_lsn(lsn);
    guard.MarkDirty();
  }
  RECDB_RETURN_NOT_OK(guard.Drop());
  return Status::OK();
}

Status TableHeap::RepairTail(bool* repaired) {
  RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(last_page_id_));
  TablePage tp(guard.page());
  if (tp.next_page_id() != kInvalidPageId) {
    tp.set_next_page_id(kInvalidPageId);
    guard.MarkDirty();
    if (repaired != nullptr) *repaired = true;
  }
  RECDB_RETURN_NOT_OK(guard.Drop());
  return Status::OK();
}

Result<std::optional<std::pair<Rid, Tuple>>> TableHeap::Iterator::Next() {
  while (page_id_ != kInvalidPageId) {
    if (!guard_) {
      RECDB_ASSIGN_OR_RETURN(guard_, heap_->pool_->FetchGuard(page_id_));
    }
    TablePage tp(guard_.page());
    const uint16_t n = tp.num_slots();
    while (slot_ < n) {
      uint16_t s = slot_++;
      auto bytes = tp.Get(s);
      if (!bytes.ok()) continue;  // deleted slot
      RECDB_ASSIGN_OR_RETURN(
          Tuple tuple,
          Tuple::DeserializeFrom(bytes.value().first, bytes.value().second,
                                 num_values_));
      return std::make_optional(
          std::make_pair(Rid{page_id_, s}, std::move(tuple)));
    }
    page_id_t next = tp.next_page_id();
    RECDB_RETURN_NOT_OK(guard_.Drop());
    page_id_ = next;
    slot_ = 0;
  }
  return std::optional<std::pair<Rid, Tuple>>{};
}

}  // namespace recdb
