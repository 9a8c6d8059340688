"""Reference HTTP responder for ``http-warm``: ``python3 ref_server.py < body``.

A minimal stdlib asyncio server that answers every request on a keep-alive
connection with the same canned JSON body, read from standard input, and
does nothing else.  ``http-warm`` alternates its timed segments between the
real front door and this responder on the same CPU, and reports the front
door's times relative to the responder's: both pay the same event loop,
socket and scheduling costs of the shared machine, so its slow phases cancel
out.  Prints ``listening <port>`` once bound; runs until killed.
"""

import asyncio
import sys


def _response(body: bytes) -> bytes:
    head = (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _serve(response: bytes) -> None:
    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length" and int(value):
                        await reader.readexactly(int(value))
                writer.write(response)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(f"listening {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_serve(_response(sys.stdin.buffer.read())))
