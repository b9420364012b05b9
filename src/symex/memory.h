// Symbolic memory: objects with byte-granular symbolic contents.
//
// Pointers at run time are (object id, offset expression) pairs; address
// arithmetic never escapes an object, so aliasing is exact (the KLEE model).
// Reads and writes at symbolic offsets materialize select chains over the
// object's bytes — complete (no concretization) for the small buffers the
// workload suite uses.
//
// Forking a state copies its AddressSpace: one flat vector of the live
// objects, each a fixed-size record (metadata plus a counted reference to
// the contents). The copy allocates once for the vector and nothing per
// object; contents are shared copy-on-write (docs/engine.md, "Forking a
// state").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

struct MemoryObject {
  uint64_t id = 0;
  uint64_t size = 0;
  bool read_only = false;
  bool is_alloca = false;
  // Views a string that outlives every state: a module-owned global or
  // instruction name, or a literal. Forks copy the view, never the text.
  std::string_view name;
};

// The byte contents of one object, shared copy-on-write between forked
// states. Intrusively reference-counted: see ObjectRef.
class ObjectState {
 public:
  ObjectState(const ObjectState&) = delete;
  ObjectState& operator=(const ObjectState&) = delete;

  const Expr* Byte(uint64_t index) const { return bytes_[index]; }
  void SetByte(uint64_t index, const Expr* value) { bytes_[index] = value; }
  uint64_t size() const { return size_; }

 private:
  friend class ObjectRef;

  // A fresh state holding one reference, every byte `fill`.
  ObjectState(uint64_t size, const Expr* fill);
  // A fresh state holding one reference, with `source`'s bytes.
  explicit ObjectState(const ObjectState* source);

  std::atomic<uint32_t> refs_{1};
  uint64_t size_;
  std::unique_ptr<const Expr*[]> bytes_;
};

// A counted reference to an ObjectState. Copying shares the contents; the
// last reference to go frees them. The count is the only thing workers
// share: a state (and every ObjectRef in it) is run by one worker at a
// time, but siblings forked from it may be stolen and run elsewhere.
class ObjectRef {
 public:
  ObjectRef(uint64_t size, const Expr* fill) : state_(new ObjectState(size, fill)) {}
  ObjectRef(const ObjectRef& other) : state_(other.state_) {
    if (state_ != nullptr) {
      state_->refs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ObjectRef(ObjectRef&& other) noexcept : state_(std::exchange(other.state_, nullptr)) {}
  ObjectRef& operator=(ObjectRef other) noexcept {
    std::swap(state_, other.state_);
    return *this;
  }
  ~ObjectRef();

  const ObjectState& operator*() const { return *state_; }
  // Mutable contents, cloned first when another reference shares them.
  ObjectState& MutableContents();

 private:
  explicit ObjectRef(ObjectState* adopted) : state_(adopted) {}

  ObjectState* state_ = nullptr;
};

class AddressSpace {
 public:
  // Allocates a fresh zero-initialized object. Ids increase monotonically
  // and are never reused, so a pointer into a freed object stays dead.
  uint64_t Allocate(ExprContext& ctx, uint64_t size, bool read_only, bool is_alloca,
                    std::string_view name);
  // Erases the object: the table holds only live objects.
  void Free(uint64_t object_id);
  bool Exists(uint64_t object_id) const { return Find(object_id) != nullptr; }
  // The live object's metadata, or null when it was freed (or never existed).
  const MemoryObject* Find(uint64_t object_id) const;

  const MemoryObject& Meta(uint64_t object_id) const { return Live(object_id).meta; }

  const ObjectState& Read(uint64_t object_id) const { return *Live(object_id).contents; }
  // Returns a mutable object state, cloning if it is shared with a forked
  // sibling (copy-on-write).
  ObjectState& Write(uint64_t object_id);

  size_t NumObjects() const { return objects_.size(); }

 private:
  struct Entry {
    MemoryObject meta;
    ObjectRef contents;
  };

  const Entry* Lookup(uint64_t object_id) const;
  const Entry& Live(uint64_t object_id) const;

  // Live objects in ascending id order (allocation appends, since ids only
  // grow). Lookups binary-search it; a fork copies it flat.
  std::vector<Entry> objects_;
  uint64_t next_id_ = 1;  // id 0 is the null object
};

}  // namespace overify
