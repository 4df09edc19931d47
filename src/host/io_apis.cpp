#include "host/io_apis.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace dk::host {

Nanos MemoryBackingDevice::read_block(std::uint64_t offset,
                                      std::span<std::uint8_t> out) {
  DK_CHECK(offset + out.size() <= data_.size());
  std::memcpy(out.data(), data_.data() + offset, out.size());
  return access_cost_;
}

Nanos MemoryBackingDevice::write_block(std::uint64_t offset,
                                       std::span<const std::uint8_t> data) {
  DK_CHECK(offset + data.size() <= data_.size());
  std::memcpy(data_.data() + offset, data.data(), data.size());
  return access_cost_;
}

IoApis::IoApis(BackingDevice& device, std::size_t cache_pages,
               core::Calibration calib)
    : device_(device),
      capacity_pages_(cache_pages ? cache_pages : 1),
      calib_(calib) {}

std::size_t IoApis::dirty_pages() const {
  std::size_t n = 0;
  for (const auto& [idx, page] : pages_)
    if (page.dirty) ++n;
  return n;
}

void IoApis::touch_lru(std::uint64_t page_index, Page& page) {
  lru_.erase(page.lru_pos);
  lru_.push_front(page_index);
  page.lru_pos = lru_.begin();
}

Nanos IoApis::evict_if_needed() {
  Nanos cost = 0;
  while (pages_.size() > capacity_pages_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = pages_.find(victim);
    DK_CHECK(it != pages_.end());
    if (it->second.dirty) {
      cost += device_.write_block(victim * kPageBytes, it->second.bytes);
      ++stats_.writebacks;
    }
    pages_.erase(it);
    ++stats_.evictions;
  }
  return cost;
}

IoApis::Page& IoApis::fault_in(std::uint64_t page_index, Nanos& cost) {
  auto it = pages_.find(page_index);
  if (it != pages_.end()) {
    ++stats_.hits;
    touch_lru(page_index, it->second);
    return it->second;
  }
  ++stats_.misses;
  Page page;
  page.bytes.resize(kPageBytes);
  cost += device_.read_block(page_index * kPageBytes, page.bytes);
  lru_.push_front(page_index);
  page.lru_pos = lru_.begin();
  auto [pos, inserted] = pages_.emplace(page_index, std::move(page));
  DK_CHECK(inserted);
  cost += evict_if_needed();
  return pos->second;
}

Nanos IoApis::read(std::uint64_t offset, std::span<std::uint8_t> out) {
  Nanos cost = calib_.syscall;
  ++stats_.syscalls;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t page_index = pos / kPageBytes;
    const std::uint64_t in_page = pos % kPageBytes;
    const std::size_t n = std::min<std::size_t>(out.size() - done,
                                                kPageBytes - in_page);
    Page& page = fault_in(page_index, cost);
    std::memcpy(out.data() + done, page.bytes.data() + in_page, n);
    done += n;
  }
  cost += transfer_time(out.size(), calib_.copy_bps);  // kernel -> user copy
  return cost;
}

Nanos IoApis::write(std::uint64_t offset, std::span<const std::uint8_t> data) {
  Nanos cost = calib_.syscall;
  ++stats_.syscalls;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t page_index = pos / kPageBytes;
    const std::uint64_t in_page = pos % kPageBytes;
    const std::size_t n = std::min<std::size_t>(data.size() - done,
                                                kPageBytes - in_page);
    Page& page = fault_in(page_index, cost);
    std::memcpy(page.bytes.data() + in_page, data.data() + done, n);
    page.dirty = true;
    done += n;
  }
  cost += transfer_time(data.size(), calib_.copy_bps);  // user -> kernel copy
  return cost;
}

Nanos IoApis::fsync() {
  Nanos cost = calib_.syscall;
  ++stats_.syscalls;
  for (auto& [idx, page] : pages_) {
    if (!page.dirty) continue;
    cost += device_.write_block(idx * kPageBytes, page.bytes);
    page.dirty = false;
    ++stats_.writebacks;
  }
  return cost;
}

Nanos IoApis::mmap_access(std::uint64_t offset, std::span<std::uint8_t> out,
                          bool write_access,
                          std::span<const std::uint8_t> in) {
  // No syscall: the MMU resolves resident pages; absent pages fault.
  Nanos cost = 0;
  std::size_t done = 0;
  const std::size_t total = write_access ? in.size() : out.size();
  while (done < total) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t page_index = pos / kPageBytes;
    const std::uint64_t in_page = pos % kPageBytes;
    const std::size_t n =
        std::min<std::size_t>(total - done, kPageBytes - in_page);
    const bool resident = pages_.count(page_index) > 0;
    if (!resident) {
      ++stats_.page_faults;
      cost += calib_.context_switch;  // fault entry/exit
    }
    Page& page = fault_in(page_index, cost);
    if (write_access) {
      std::memcpy(page.bytes.data() + in_page, in.data() + done, n);
      page.dirty = true;
    } else {
      std::memcpy(out.data() + done, page.bytes.data() + in_page, n);
    }
    done += n;
  }
  return cost;  // resident access is memory-speed: no copy charge
}

Result<Nanos> IoApis::direct_read(std::uint64_t offset,
                                  std::span<std::uint8_t> out) {
  if (offset % kPageBytes != 0 || out.size() % kPageBytes != 0)
    return Status::Error(Errc::invalid_argument,
                         "O_DIRECT requires page-aligned offset and length");
  ++stats_.syscalls;
  return calib_.syscall + device_.read_block(offset, out);
}

Nanos IoApis::aio_submit(bool direct, bool is_write, std::uint64_t offset,
                         std::span<std::uint8_t> buffer) {
  if (direct) {
    // True async: the device time happens off-thread; the submitter pays
    // only the syscall (plus the completion reap, folded in here).
    ++stats_.syscalls;
    if (is_write)
      (void)device_.write_block(offset, buffer);
    else
      (void)device_.read_block(offset, buffer);
    return calib_.syscall + calib_.uring_complete;
  }
  // Buffered AIO degrades to synchronous (§II: libaio only supports async
  // for O_DIRECT): the submitter eats the whole buffered path.
  return is_write ? write(offset, buffer) : read(offset, buffer);
}

}  // namespace dk::host
