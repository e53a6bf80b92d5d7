"""Emulation of the Linux ``/proc/self/pagemap`` interface.

Attacks use pagemap to learn physical addresses (Section 2.3).  After the
rowhammer disclosures, "the Linux kernel was updated to disallow the use of
the pagemap interface from the user space" (Section 5.2.1); the
``restricted`` flag models that hardening, and :class:`Pagemap` raises
:class:`~repro.errors.PagemapRestrictedError` for unprivileged readers so
experiments can study attacks with and without the mitigation.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import PagemapRestrictedError
from .virtual import VirtualMemory


class Pagemap:
    """Read-only view of the page tables, gated like the real interface."""

    def __init__(self, vm: VirtualMemory, restricted: bool = False) -> None:
        self._vm = vm
        self.restricted = restricted

    def _check(self, privileged: bool) -> None:
        if self.restricted and not privileged:
            raise PagemapRestrictedError(
                "/proc/self/pagemap requires CAP_SYS_ADMIN on this kernel"
            )

    def virt_to_phys(self, vaddr: int, privileged: bool = False) -> int:
        """Translate like reading the pagemap entry for ``vaddr``.

        Raises :class:`PagemapRestrictedError` if the interface is
        restricted and the caller is not privileged, and
        :class:`~repro.errors.TranslationError` if the page is unmapped.
        """
        self._check(privileged)
        return self._vm.translate(vaddr)

    def frames(self, vaddr: int, length: int, privileged: bool = False) -> Iterator[int]:
        """Read the entries of ``[vaddr, vaddr + length)`` in one pass, like
        one ``pread`` of a pagemap range: the frame base address of the page
        holding each of ``range(vaddr, vaddr + length, page_bytes)``.

        The restriction check happens here, before anything is read; the
        frames are then streamed from the page table (filling the TLB as
        :meth:`virt_to_phys` does), and iteration raises
        :class:`~repro.errors.TranslationError` at the first unmapped page.
        """
        self._check(privileged)
        return self._vm.frames(vaddr, length)

    def page_frame_number(self, vaddr: int, privileged: bool = False) -> int:
        """The PFN field of the pagemap entry."""
        paddr = self.virt_to_phys(vaddr, privileged)
        return paddr >> (self._vm.config.page_bytes.bit_length() - 1)
