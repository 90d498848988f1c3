package main

import (
	"os"
	"syscall"
	"unsafe"
)

// Inode flag ioctls and the Orlov allocator's top-of-hierarchy flag, from
// linux/fs.h.
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopDirFlag  = 0x00020000
)

// markTopDir sets chattr +T on dir, best effort: file systems without inode
// flags refuse the ioctl and the directory stays as it is.
func markTopDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= fsTopDirFlag
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
