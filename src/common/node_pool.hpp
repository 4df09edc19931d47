// Allocation-free steady state for per-I/O bookkeeping.
//
//  NodePool<Map>         — spare nodes of a node-based map (std::map,
//                          std::unordered_map), recycled through extract()
//                          and insert(node_type&&): once a map has reached
//                          its peak size, inserts and erases allocate
//                          nothing. Spares move freely between maps of the
//                          same type.
//  RecyclingAllocator<T> — allocate_shared allocator that keeps freed
//                          single-object blocks on a thread-local free list
//                          per rebound type, so a shared per-op body costs
//                          no heap allocation once its peak count is live.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace dk {

template <typename Map>
class NodePool {
 public:
  /// map.try_emplace(key, value), taking a spare node when one is left.
  std::pair<typename Map::iterator, bool> emplace(
      Map& map, const typename Map::key_type& key,
      typename Map::mapped_type value) {
    if (spare_.empty()) return map.try_emplace(key, std::move(value));
    if (auto it = map.find(key); it != map.end()) return {it, false};
    typename Map::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    node.mapped() = std::move(value);
    return {map.insert(std::move(node)).position, true};
  }

  /// map.erase(it), keeping the node as a spare.
  void erase(Map& map, typename Map::iterator it) {
    spare_.push_back(map.extract(it));
  }

 private:
  std::vector<typename Map::node_type> spare_;
};

template <typename T>
struct RecyclingAllocator {
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    Block*& head = free_list().head;
    if (n != 1 || head == nullptr)
      return static_cast<T*>(::operator new(n * sizeof(T)));
    return reinterpret_cast<T*>(std::exchange(head, head->next));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) return ::operator delete(p);
    Block*& head = free_list().head;
    head = new (p) Block{head};
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }

 private:
  struct Block {
    Block* next;
  };
  static_assert(sizeof(T) >= sizeof(Block));

  struct FreeList {
    Block* head = nullptr;
    ~FreeList() {
      while (head != nullptr) ::operator delete(std::exchange(head, head->next));
    }
  };
  static FreeList& free_list() {
    static thread_local FreeList list;
    return list;
  }
};

}  // namespace dk
