#include "src/symex/memory.h"

#include <algorithm>

namespace overify {

ObjectState::ObjectState(uint64_t size, const Expr* fill)
    : size_(size), bytes_(new const Expr*[size]) {
  std::fill_n(bytes_.get(), size, fill);
}

ObjectState::ObjectState(const ObjectState* source)
    : size_(source->size_), bytes_(new const Expr*[source->size_]) {
  std::copy_n(source->bytes_.get(), size_, bytes_.get());
}

ObjectRef::~ObjectRef() {
  // Release so this holder's reads of the bytes happen before whoever frees
  // or overwrites them; acquire so the last holder frees after everyone's.
  if (state_ != nullptr && state_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete state_;
  }
}

ObjectState& ObjectRef::MutableContents() {
  // Sole owner: mutate in place. A count of 1 may have just been produced
  // by another worker dropping its reference after reading the bytes (a
  // thief's copy-on-write clone of a stolen state's object); the acquire
  // load pairs with that release decrement, so its reads happen before
  // the writes that follow.
  if (state_->refs_.load(std::memory_order_acquire) != 1) {
    *this = ObjectRef(new ObjectState(state_));
  }
  return *state_;
}

uint64_t AddressSpace::Allocate(ExprContext& ctx, uint64_t size, bool read_only, bool is_alloca,
                                std::string_view name) {
  uint64_t id = next_id_++;
  objects_.push_back(Entry{MemoryObject{id, size, read_only, is_alloca, name},
                           ObjectRef(size, ctx.Constant(0, 8))});
  return id;
}

void AddressSpace::Free(uint64_t object_id) {
  if (const Entry* entry = Lookup(object_id)) {
    objects_.erase(objects_.begin() + (entry - objects_.data()));
  }
}

ObjectState& AddressSpace::Write(uint64_t object_id) {
  return const_cast<Entry&>(Live(object_id)).contents.MutableContents();
}

const MemoryObject* AddressSpace::Find(uint64_t object_id) const {
  const Entry* entry = Lookup(object_id);
  return entry != nullptr ? &entry->meta : nullptr;
}

const AddressSpace::Entry* AddressSpace::Lookup(uint64_t object_id) const {
  auto it = std::lower_bound(
      objects_.begin(), objects_.end(), object_id,
      [](const Entry& entry, uint64_t id) { return entry.meta.id < id; });
  return it != objects_.end() && it->meta.id == object_id ? &*it : nullptr;
}

const AddressSpace::Entry& AddressSpace::Live(uint64_t object_id) const {
  const Entry* entry = Lookup(object_id);
  OVERIFY_ASSERT(entry != nullptr, "access to a freed or unknown object");
  return *entry;
}

}  // namespace overify
